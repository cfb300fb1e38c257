#include "autograd/variable.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace wa::ag {

void Node::accum_grad(const Tensor& g) {
  if (!grad_allocated) {
    grad = Tensor::zeros(value.shape());
    grad_allocated = true;
  }
  check_same_shape(grad.shape(), g.shape(), "accum_grad");
  // grad += g, split across the team for large activations' gradients.
  const std::int64_t n = grad.numel();
  float* dst = grad.raw();
  const float* src = g.raw();
#pragma omp parallel for schedule(static) if (n >= kParallelSweepMin)
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

Tensor& Node::ensure_grad() {
  if (!grad_allocated) {
    grad = Tensor::zeros(value.shape());
    grad_allocated = true;
  }
  return grad;
}

Variable::Variable(Tensor value, bool requires_grad, std::string name)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->name = std::move(name);
}

const Tensor& Variable::grad() const {
  if (!node_) throw std::logic_error("grad() on undefined Variable");
  return node_->ensure_grad();
}

void Variable::zero_grad() {
  if (node_ && node_->grad_allocated) node_->grad.fill(0.F);
}

void Variable::sgd_step(float lr) {
  if (!node_ || !node_->grad_allocated) return;
  auto v = node_->value.data();
  auto g = node_->grad.data();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] -= lr * g[i];
}

std::vector<Node*> reverse_topo_order(const Variable& root) {
  std::vector<Node*> order;
  if (!root.defined()) return order;
  std::unordered_set<Node*> visited;
  // Iterative DFS post-order, then reverse: children (parents in graph
  // terminology) come after the node that consumes them.
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack{{root.node().get(), 0}};
  visited.insert(root.node().get());
  std::vector<Node*> post;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (visited.insert(p).second) stack.push_back({p, 0});
    } else {
      post.push_back(f.node);
      stack.pop_back();
    }
  }
  order.assign(post.rbegin(), post.rend());
  return order;
}

void Variable::backward(const Tensor* seed) const {
  if (!node_) throw std::logic_error("backward() on undefined Variable");
  if (seed != nullptr) {
    check_same_shape(seed->shape(), node_->value.shape(), "backward seed");
    node_->ensure_grad() += *seed;
  } else {
    Tensor& g = node_->ensure_grad();
    g.fill(0.F);
    g += Tensor::ones(node_->value.shape());
  }
  for (Node* n : reverse_topo_order(*this)) {
    if (n->backward_fn && n->grad_allocated) n->backward_fn(*n);
  }
}

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool grad_mode_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

GraphStats graph_stats(const Variable& root) {
  GraphStats st;
  for (const Node* n : reverse_topo_order(root)) {
    ++st.nodes;
    st.value_bytes += n->value.numel() * static_cast<std::int64_t>(sizeof(float));
    if (n->grad_allocated) {
      st.grad_bytes += n->grad.numel() * static_cast<std::int64_t>(sizeof(float));
    }
  }
  return st;
}

Variable apply_op(std::string name, std::vector<Variable> parents, Tensor out_value,
                  std::function<void(Node&)> backward) {
  bool needs_grad = g_grad_enabled;
  if (needs_grad) {
    needs_grad = false;
    for (const auto& p : parents) needs_grad = needs_grad || p.requires_grad();
  }
  Variable out(std::move(out_value), needs_grad, std::move(name));
  if (needs_grad) {
    auto node = out.node();
    node->parents.reserve(parents.size());
    for (auto& p : parents) node->parents.push_back(p.node());
    node->backward_fn = std::move(backward);
  }
  return out;
}

}  // namespace wa::ag
