"""Regression-pinned empirical constants.

The bounds verified by this package all carry implicit absolute constants; the
suites therefore record the empirical maxima observed on fixed seeded suites,
and later runs fail if a maximum grows by more than ``PIN_HEADROOM`` (a
genuine regression, not noise: every suite is a deterministic function of its
seed).  A pin holds only a run inside the suite it was measured on:
``cli.pinned_suites`` maps each gating command to that suite, and
``scripts/measure_pins.py`` re-measures every table from the same map.

The tables and the suites they were measured on:

* ``DECAY_MAX_RATIO``: ``verify-decay`` at each (seed, alpha) key, otherwise
  the default SuiteConfig: 20 samples, L = 8192, N = 2^17, band [0.25, 32]
  clamped to the grid, the dyadic times 1, 2, ..., 2^10.
* ``LEMMA_SUITE_MAXIMA``: ``lemma-suite`` on 100 seed-0 samples on LEMMA_GRID
  (L = 200, N = 2^17), k in [-8, 8].
* ``TRACE_RATIO_MAXIMA``: the criterion-9 trace suite, 10 seed-0 samples at
  alpha 1/2, band [0.25, 32] clamped to TRACE_GRID (L = 200, N = 2^15),
  t in {2^11, 2^12, 2^13}; ``trace-proof`` traces its first sample.
* ``Q0_LOWER_CONSTANT`` and ``KERNEL_LOWER_CONSTANT``: the deterministic ray
  sweep of ``tracer_constant_suite``, no samples.
* ``EMBEDDING_CONSTANT``: analytic.

The values were frozen on an earlier build and are not all bit-exact today:
``scripts/ledger.txt`` holds what the present build measures, with its library
versions, and every difference sits inside ``PIN_HEADROOM``.  Update a table
only after verifying that a change in behavior is intended.
"""

PIN_HEADROOM = 1.01

# keys are row names, values the recorded suite maxima
LEMMA_SUITE_MAXIMA = {
    "bern_1_2": 0.44429022822493608,
    "bern_2_4": 0.69992889300685024,
    "bern_2_inf": 0.56568973964486624,
    "bern2_s1_p2": 1.7982564103899634,
    "lemma1": 2.5280586629468367,
    "lemma2_s0.75": 0.81732490915171696,
}

# global max of R(t) = (1+|t|)^{1/2} sup / (H^1 + weighted), keyed by (seed, alpha)
DECAY_MAX_RATIO = {
    (0, 0.35): 0.32121522545440551,
    (0, 0.4): 0.30058217096036338,
    (0, 0.45): 0.28511159290881871,
    (0, 0.5): 0.27256064498879357,
    (1, 0.35): 0.22308365764468846,
    (1, 0.4): 0.21054058586049446,
    (1, 0.45): 0.19546306772435848,
    (1, 0.5): 0.18612079606570775,
}

# analytic sharp Sobolev embedding constant: sup|f| <= 2^{-1/2} ||f||_{H^1};
# the empirical suites must sit below it (this one cannot drift with samples)
EMBEDDING_CONSTANT = 0.7071067811865476

# proof tracer, observed on each sample's dominant stationary ray and at rays
# 8x faster/slower: max over the suite of each bound ratio.  B3 is structurally
# zero here: for these times the middle band holds only a few annuli and no
# physical observer ray makes them fast enough for the far-from-stationary
# high-frequency regime, so the regression check treats a zero pin as "stay at
# the numerical floor".
TRACE_RATIO_MAXIMA = {
    "A": 6.450828230937397e-07,
    "B1": 2.97029779320512e-09,
    "B2": 0.24163365401586082,
    "B3": 0.0,
    "C": 0.822022449156651,
}

# q0 infimum / (|t| 2^{l-(2-alpha)k}) minima over the deterministic ray sweep
# (tracer_constant_suite); lower bounds, so suites fail if a value falls below
# pin / PIN_HEADROOM
Q0_LOWER_CONSTANT = {
    0.4: 0.10398833423176462,
    0.5: 0.091751709536136979,
}

# kernel lower bound ratio minimum over the I1/I3 ray sweep at alpha = 1/2
KERNEL_LOWER_CONSTANT = 0.3379283905932738
