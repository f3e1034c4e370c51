#!/usr/bin/env bash
# Regenerate every reproduction artifact:
#   - full test suite (correctness + property tests + every paper
#     table/figure, tests/test_paper_figures.py)
#   - all runnable examples
# Performance is measured by benchmarks/e2e/run.py, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== installing =="
pip install -e . --quiet --no-build-isolation

echo "== test suite =="
python -m pytest tests/ -q

echo "== examples =="
for f in examples/*.py; do
  echo "--- $f ---"
  python "$f" > /dev/null
  echo "OK"
done

echo "== CLI =="
python -m repro examples/ccsd_residual.tce --no-cache-opt > /dev/null
echo "OK"

echo "all reproduction artifacts regenerated successfully"
