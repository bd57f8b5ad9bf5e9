"""The rule/axiom grid on one seeded election-sized profile.

Draws the single-peaked profile of `spatial.sample_profile` for PROFILE:
300 voters from the triangular density on [-1, 1], 8 evenly spaced
candidates, each voter ranking them by distance and approving those closer
than 0.4. Then runs `check_axiom` on every GRID_RULES x GRID_AXIOMS cell,
as `avr axioms` does. The grid (status and `searched` per cell) goes to
stdout, which is the same in every run; the time of each cell and the total
go to stderr.

    python3 scripts/election_grid.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from avrunoff import axioms, spatial  # noqa: E402
from avrunoff.profiles import RankedProfile  # noqa: E402

PROFILE = spatial.SpatialConfig(d=0.4, n_voters=300, n_candidates=8, seed=5)


def run_grid(profile: RankedProfile) -> None:
    start = time.perf_counter()
    for name, spec in axioms.GRID_RULES:
        for axiom in axioms.GRID_AXIOMS:
            t0 = time.perf_counter()
            out = axioms.check_axiom(profile, spec, axiom)
            print(f"{name:>7} / {axiom:<22} {out.status:<10} searched {out.searched}")
            print(f"{name:>7} / {axiom:<22} {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    print(f"grid {time.perf_counter() - start:.2f}s", file=sys.stderr)


def main() -> int:
    print(f"seed {PROFILE.seed}: {PROFILE.n_candidates} candidates, {PROFILE.n_voters} voters")
    run_grid(spatial.sample_profile(PROFILE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
