"""The tests' margin-0 oracle that does not run the extension engine: the
admissible labelings read off the cells of the central hyperplane
arrangement of a dataset's points.  No program path scans cells; the scan
primitives stay in `vclab.separability` for this oracle, which reaches
p = 20-30 where the sign-vector oracle would need 2^(p-1) solves.

The primitives are bound here at import, so a test that patches them in
`vclab.montecarlo` or `vclab.separability` leaves the oracle intact.
"""

import numpy as np

from vclab.separability import TAU, dedupe_directions, max_margin, sign_pattern_blocks


def cells_labelings(dataset, margin: float = 0.0):
    """Yield each admissible labeling realizable at margin 0 once, read off
    the cells of the arrangement of the kp points (margin 0 only).

    Degenerate-edge candidates are verified with `max_margin`; on generic
    data the cell patterns are exact as-is.
    """
    assert margin == 0.0
    flat = dataset.flat
    p, k = dataset.p, dataset.spec.k
    reps, idx, sgn = dedupe_directions(flat)
    seen: set[bytes] = set()
    for block, verify in sign_pattern_blocks(reps):
        full = block[:, idx] * sgn[None, :]
        grouped = full.reshape(-1, p, k)
        consistent = np.all(grouped == grouped[:, :, :1], axis=(1, 2))
        if not consistent.any():
            continue
        rows = np.ascontiguousarray(grouped[consistent, :, 0])
        flags = verify[consistent]
        # one bytes key per row, from one call; the first occurrence of a
        # row in scan order decides, with its verify flag
        keys = rows.view(np.dtype((np.void, rows.itemsize * p))).ravel().tolist()
        for i, key in enumerate(keys):
            if key in seen:
                continue
            seen.add(key)
            if flags[i] and max_margin(flat, np.repeat(rows[i], k)) <= TAU:
                continue
            yield rows[i]
