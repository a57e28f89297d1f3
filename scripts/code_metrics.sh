#!/usr/bin/env sh
# Prints the code-size metrics the ROADMAP tracks, measured the same way on
# every change:
#   - nonblank lines of the spectral core: src/fused, src/fft and
#     src/core/spectral_conv.* (and of src/fused alone);
#   - nonblank lines of the model layer and the unfused baseline: src/core
#     and src/baseline;
#   - rows of README's run-time knob table (the "Env var" table under
#     "Runtime knobs").
# Usage: scripts/code_metrics.sh   (from anywhere inside the repository)
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

nonblank() { cat "$@" | grep -cv '^[[:space:]]*$'; }

echo "nonblank_lines_spectral_core $(nonblank src/fused/* src/fft/* src/core/spectral_conv.*)"
echo "nonblank_lines_src_fused $(nonblank src/fused/*)"
echo "nonblank_lines_core_baseline $(nonblank src/core/* src/baseline/*)"
echo "runtime_knob_rows $(awk '/^\| Env var/ { t = 1; next } t && /^\| `/ { n++ } t && /^$/ { exit } END { print n + 0 }' README.md)"
