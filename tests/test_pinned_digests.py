"""Every output digest the benchmark records, checked on each test run.

The benchmark's own recipes run as they are: ``WORKLOADS[name].prepare``
at the benchmark's seed and full size, then each operation's ``call`` and
``check``, with no re-seeding and no shrinking.  A change to the sampler's
stream, the evaluation, the exact algebra or the rendering that alters one
byte of an output fails here.

Recorded on x86-64 with numpy 2.4.6 and scipy 1.17.1.  The float digests
(mc-experiment, dense-kernel) depend on those libraries' rounding, and
mc-experiment's ``verdict.json`` also names their versions, so other
versions record other digests.  The exact digests (exact-oracle,
identities) depend on neither.  Each constant is marked with the commit
whose CHANGES.md entry first recorded it; a digest changed on purpose is
re-recorded here, and CHANGES.md says so.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

PINNED = {
    ("exact-oracle", 1): {
        "(1,1)k1": "080977f0fa79acb3097c89340e3bb0684cd6ff9e7420233f5a312a2b14df004a",  # 4cd1e7d
        "(1,1)k2": "f5011116ad6d5c97d67d99859a5db5ffa8d3cdd84651628468d3726c02d27c2b",  # 7a672a0
        "(1,1)k4": "6660aa55ef7c87fb527b4b3885ffbfea0b315bac11eaf7b5cdcee78cd15a59a0",  # 7a672a0
        "(1,2)k1": "ccf8991eac800780c1f3d592390f8776a4509b6542c12399fc7f5ff99db79a44",  # 4cd1e7d
        "(1,2)k2": "8b5bcb65c0db0fa9254bce1018e6fa59ba47c3dffda6a9f9dc069f989a92746f",  # 7a672a0
        "mixedk1": "d7e6bce6725a3eb018558a5bfaa2129d9e82aa6a2c82c40d54c477d0a207f61f",  # 4cd1e7d
        "mixedk2": "3113dceb53d3d96283a4b9fc6bf4d80844aa66d2b28bc261d5e594e3177e9b92",  # 7a672a0
    },
    ("mc-experiment", 1): {
        "moments.csv": "a6d22c03936dc8b533b71a4fa59a1cc444a59b7ba0d3a9ada13c2b2a8649bfcc",  # 8830ec9
        "verdict.json": "69523360eec06ff2b28579c93e0e7b0518781df9c0393d7eb4a2ab98110a0a5c",  # 8830ec9
    },
    ("mc-experiment", 2): {
        "moments.csv": "073392a61ebeedf2efeaab6c3b4d307cd1b5f61b37978a476ad44c2220331bc9",  # c922326
        "verdict.json": "b5acf4db0fae95c87bd91ab476487897f23fef49ecaba2c4dd353b398e7d099c",  # c922326
    },
    ("dense-kernel", 1): {
        "MomentReport": "f34390dafd5d872cd0545943428177dc6131c43ad034d67b0f8f6facb2f453b8",  # caf4ba7
    },
    ("identities", 1): {
        "identities_report.csv":
            "51ddf8c7eb47ffdcea72354d2c285ada12fb350ad0849232c3efdf4f5b6cb975",  # cd44bec
    },
}


@pytest.mark.parametrize("name, seed", sorted(PINNED), ids=[f"{n}-seed{s}" for n, s in sorted(PINNED)])
def test_recorded_digests_are_reproduced(tmp_path, name, seed):
    prepared = WORKLOADS[name].prepare(seed, tmp_path, False)
    for op in prepared.ops:
        op.check(op.call())
    assert prepared.digests == PINNED[name, seed]
