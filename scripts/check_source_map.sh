#!/usr/bin/env bash
# Docs drift gate (run by CI): the README source map must cover every source
# directory, and every design doc must exist and be linked from the README.
#
# The source map went stale once already (src/serve satellites landed without
# a row); this check turns that class of drift into a red build instead of a
# code-review catch.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Every directory under src/ (including nested ones like src/backend/simd)
# needs a `src/<dir>` row in the README source map.
while IFS= read -r dir; do
  rel=${dir#./}
  if ! grep -q "\`${rel}\`" README.md; then
    echo "error: README source map has no entry for ${rel}/" >&2
    fail=1
  fi
done < <(find ./src -mindepth 1 -type d | sort)

# Top-level source trees the map must also cover.
for rel in tests bench examples docs scripts; do
  if ! grep -q "\`${rel}/\`" README.md; then
    echo "error: README source map has no entry for ${rel}/" >&2
    fail=1
  fi
done

# Design docs: each one present, linked from the README, and every doc that
# exists is accounted for (a new doc must be added to the README).
for doc in docs/ARCHITECTURE.md docs/NUMERICS.md docs/WAM_FORMAT.md docs/OBSERVABILITY.md; do
  if [ ! -f "${doc}" ]; then
    echo "error: ${doc} is referenced but missing" >&2
    fail=1
  fi
done
while IFS= read -r doc; do
  rel=${doc#./}
  if ! grep -q "${rel#docs/}" README.md; then
    echo "error: ${rel} exists but the README never mentions it" >&2
    fail=1
  fi
done < <(find ./docs -name '*.md' | sort)

# Golden fixture drift: every checked-in `.wam` fixture must be exercised by
# the artifact suite by name — its quoted stem (the fixture table's form) or
# its quoted file name. A fixture added without a test, or orphaned by one,
# fails here.
while IFS= read -r fixture; do
  stem=$(basename "${fixture}" .wam)
  if ! grep -qE "\"${stem}(\.wam)?\"" tests/test_serve_artifact.cpp; then
    echo "error: ${fixture} is never loaded by tests/test_serve_artifact.cpp" >&2
    fail=1
  fi
done < <(find ./tests/data -name 'golden_*.wam' | sort)

# Format-doc lockstep: artifact.hpp promises WAM_FORMAT.md tracks the writer
# version, so the doc must name the current kWamVersion.
ver=$(sed -n 's/.*kWamVersion = \([0-9]*\);.*/\1/p' src/serve/artifact.hpp)
if [ -z "${ver}" ]; then
  echo "error: could not read kWamVersion from src/serve/artifact.hpp" >&2
  fail=1
elif ! grep -q "Version ${ver}" docs/WAM_FORMAT.md; then
  echo "error: docs/WAM_FORMAT.md has no section for .wam version ${ver}" >&2
  fail=1
fi

if [ "${fail}" -ne 0 ]; then
  echo "docs check failed — update the README source map / docs links" >&2
  exit 1
fi
echo "docs check passed"
