"""Fuse two discovery algorithms into a polling curve and score boundaries.

Synthesizes a benchmark piece, runs two analyzers over it, stacks their
votes on the crotchet grid, extracts boundaries from the smoothed curve's
derivatives, and scores them against the planted ground truth.

Run:  python demos/02_pattern_polling.py
"""

from fractions import Fraction

from motifkit.discovery import run_algorithm
from motifkit.evaluation import boundary_prf, truth_boundaries
from motifkit.polling import PpParams, extract_boundaries, polling_curve
from motifkit.synthesis import SynthConfig, synthesize

F = Fraction

synthetic = synthesize(SynthConfig(seed=2024))
piece = synthetic.piece
span = (F(0), synthetic.total_duration)
print(f"piece: {len(piece)} notes over {synthetic.total_duration} crotchets")

records = []
for spec in ("cosiatec", "siar:3"):
    found = run_algorithm(spec, piece)
    occurrences = sum(len(r.occurrences) for r in found)
    print(f"{spec}: {len(found)} patterns, {occurrences} occurrences")
    records.extend(found)

# double weight for the cover-based analyzer, single for the vector table
curve = polling_curve(records, {"cosiatec": 2, "siar:3": 1}, piece_span=span)
peak = max(curve.values)
print(f"polling curve: {len(curve)} grid points, peak salience {peak}")

params = PpParams(window=5, order=2, lam=F(1, 2))
predicted = extract_boundaries(curve, params)
truth = truth_boundaries(synthetic.ground_truth)
score = boundary_prf(predicted, truth, tolerance=1)
print(f"predicted boundaries: {list(predicted)}")
print(f"planted boundaries:   {list(truth)}")
print(
    f"precision={float(score.precision):.3f} recall={float(score.recall):.3f} "
    f"f1={float(score.f1):.3f}"
)

# feeding the ground truth back through the same machinery is lossless
self_curve = polling_curve(synthetic.ground_truth, piece_span=span)
self_params = PpParams(window=3, order=1, lam=F(0), use_first=False)
self_score = boundary_prf(
    extract_boundaries(self_curve, self_params), truth, tolerance=1
)
print(f"self-consistency f1 (truth in, truth out): {float(self_score.f1):.3f}")
