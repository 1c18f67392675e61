#!/usr/bin/env bash
# One-command CI gate: the default build with the full test suite, then
# the sanitizer presets over their labeled smoke subsets (see
# CMakePresets.json and tests/CMakeLists.txt for the label wiring).
#
#   tools/ci_check.sh             # default + serve + vp + asan + tsan
#   tools/ci_check.sh default     # any subset of: default serve vp asan tsan
#
# Run from the repository root. Each stage is incremental. It always
# re-runs its preset's configure step, so the preset's cache variables
# hold even in a build directory first configured without the preset:
# the default preset builds with BGPATOMS_WARNINGS_AS_ERRORS=ON, and any
# new compiler warning fails the default stage.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default serve vp asan tsan)
fi

for stage in "${STAGES[@]}"; do
  echo "==> ci_check: ${stage}"
  case "${stage}" in
    default)
      cmake --preset default
      cmake --build --preset default -j "${JOBS}"
      ctest --test-dir build --output-on-failure -j "${JOBS}"
      ;;
    serve)
      # bga_serve protocol + live-socket smoke (tests/test_serve.cpp);
      # the same suite also runs under the tsan stage via its labels.
      cmake --preset default
      cmake --build --preset default -j "${JOBS}" --target test_serve
      ctest --test-dir build -L serve_smoke --output-on-failure -j "${JOBS}"
      ;;
    vp)
      # VP-value selection smoke: the table_vp_value experiment at quarter
      # scale under --strict-checks (cli/CMakeLists.txt wires the test).
      cmake --preset default
      cmake --build --preset default -j "${JOBS}" --target bga_bench
      ctest --test-dir build -L vp_smoke --output-on-failure -j "${JOBS}"
      ;;
    asan)
      # asan_smoke covers the archive decoder over files and in-memory
      # images (test_archive, test_archive_fuzz), the text dump and the
      # bga_dump binary on missing, truncated and mis-flagged input
      # (test_textdump), the path arena and its views (test_aspath,
      # test_sanitize, test_wire, test_wire_fuzz, test_mrt), the 8-byte
      # CRC-32 loads (test_hash_rng), the streamed analysis and its
      # residency bound (test_views), the serve handler's hostile-request
      # corpus (test_serve) and the propagation/sanitize oracles
      # (tests/CMakeLists.txt).
      cmake --preset asan
      cmake --build --preset asan -j "${JOBS}"
      ctest --test-dir build-asan -L asan_smoke --output-on-failure -j "${JOBS}"
      ;;
    tsan)
      cmake --preset tsan
      cmake --build --preset tsan -j "${JOBS}"
      ctest --test-dir build-tsan -L tsan --output-on-failure -j "${JOBS}"
      ;;
    *)
      echo "ci_check: unknown stage '${stage}' (expected: default serve vp asan tsan)" >&2
      exit 2
      ;;
  esac
done
echo "==> ci_check: all stages passed (${STAGES[*]})"
