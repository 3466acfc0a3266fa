"""Regenerate ``wide_q112_mixture.json``, the pinned truth of the wide-q112 workload.

The file was made once with::

    python3 perfbench/data/make_wide_q112.py

from the repository root.  It draws
``random_mixture(2, (4, 3, 4), numpy.random.default_rng(7), min_gamma=0.5, s=3)``:
k=2 components with (m, n, p) = (4, 3, 4), so q = (2s+1)mp = 112, joint
non-degeneracy gamma 4.02 at s=3 and weights 0.446 / 0.554.  The benchmark
reads the committed file and never calls ``random_mixture``, so later edits
to the generator cannot change the workload.
"""
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from ldslab.io import save_mixture  # noqa: E402
from ldslab.lds import joint_nondegeneracy_gamma, random_mixture  # noqa: E402


def main() -> None:
    mix = random_mixture(2, (4, 3, 4), np.random.default_rng(7), min_gamma=0.5, s=3)
    out = os.path.join(HERE, "wide_q112_mixture.json")
    save_mixture(out, mix)
    gamma = joint_nondegeneracy_gamma(mix, 3)
    print(f"wrote {out}: gamma {gamma:.4f}, weights {mix.weights}")


if __name__ == "__main__":
    main()
