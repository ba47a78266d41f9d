#!/usr/bin/env bash
# Reproduce the paper experiments through the result store and diff the
# deterministic payloads against the checked-in goldens.
#
# Usage:
#   ./reproduce/validate.sh                 # all experiments (E1-E12 + smoke)
#   ./reproduce/validate.sh e6_mesh_span e8_span_conjecture smoke
#
# Environment:
#   REQUIRE_WARM=1   additionally assert zero recomputation (misses=0) --
#                    i.e. every cell was served from STORE_DIR. Use on a
#                    second pass to prove the store replays the campaign.
#   REGEN=1          refresh goldens from the freshly computed payloads
#                    instead of diffing (use after an intentional payload
#                    schema change; commit the updated golden.json files).
#                    The field diff of every regenerated golden is
#                    written to $OUT_DIR/golden_diff.txt.
#
# A mismatch prints reproduce/payload_diff.py's field diff: one line per
# moved value, keyed experiment > entry > sweep point > rep > field.
#   RUNNER/STORE_DIR/OUT_DIR/THREADS   see common.sh.

set -euo pipefail
source "$(cd "$(dirname "$0")" && pwd)/common.sh"

ALL_EXPERIMENTS=(
  e1_adversarial_prune
  e2_chain_expander
  e3_uniform_shatter
  e4_random_chain
  e5_random_prune2
  e6_mesh_span
  e7_percolation
  e8_span_conjecture
  e9_diameter_stretch
  e10_subgraph_count
  e11_multibutterfly
  e12_emulation
  smoke
  ingest_smoke
)

if [ "$#" -gt 0 ]; then
  EXPERIMENTS=("$@")
else
  EXPERIMENTS=("${ALL_EXPERIMENTS[@]}")
fi

DIFF_TOOL="$REPRO_DIR/payload_diff.py"
GOLDEN_DIFF="$OUT_DIR/golden_diff.txt"
if [ "${REGEN:-0}" = "1" ]; then
  mkdir -p "$OUT_DIR"
  : > "$GOLDEN_DIFF"
fi

failures=0
for name in "${EXPERIMENTS[@]}"; do
  dir="$REPRO_DIR/$name"
  if [ ! -x "$dir/run.sh" ]; then
    echo "validate: unknown experiment '$name' (no $dir/run.sh)" >&2
    exit 2
  fi

  echo "=== $name"
  "$dir/run.sh"

  payload="$OUT_DIR/$name/payload.json"
  golden="$dir/golden.json"

  if [ "${REGEN:-0}" = "1" ]; then
    if [ -f "$golden" ]; then
      python3 "$DIFF_TOOL" --name "$name" "$golden" "$payload" >> "$GOLDEN_DIFF" || true
    else
      echo "$name: new golden" >> "$GOLDEN_DIFF"
    fi
    cp "$payload" "$golden"
    echo "--- $name: golden regenerated"
    continue
  fi

  if [ ! -f "$golden" ]; then
    echo "--- $name: FAIL (no golden.json; run with REGEN=1 to create it)" >&2
    failures=$((failures + 1))
    continue
  fi

  if ! cmp -s "$golden" "$payload"; then
    echo "--- $name: FAIL (payload differs from golden)" >&2
    python3 "$DIFF_TOOL" --name "$name" "$golden" "$payload" >&2 || true
    failures=$((failures + 1))
    continue
  fi

  if [ "${REQUIRE_WARM:-0}" = "1" ]; then
    if ! grep -Eq '^store: hits=[0-9]+ misses=0 ' "$OUT_DIR/$name/run.log"; then
      echo "--- $name: FAIL (expected a fully warm run, got: $(grep '^store:' "$OUT_DIR/$name/run.log" || echo 'no store line'))" >&2
      failures=$((failures + 1))
      continue
    fi
  fi

  echo "--- $name: OK"
done

if [ "${REGEN:-0}" = "1" ]; then
  echo "validate: ${#EXPERIMENTS[@]} golden(s) regenerated; field diff in $GOLDEN_DIFF"
  exit 0
fi
if [ "$failures" -ne 0 ]; then
  echo "validate: $failures experiment(s) failed" >&2
  exit 1
fi
echo "validate: all ${#EXPERIMENTS[@]} experiment(s) OK"
