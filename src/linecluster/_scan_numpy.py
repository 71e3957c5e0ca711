"""Vectorized fallback for the triple scan (no compiled extension needed).

Scores each block of triples with ``linecluster.tls._triple_scores``, the
package's one score expression; the compiled kernel repeats it operation
for operation, so scores agree bit-for-bit across backends. Roughly 20x
slower than the compiled scan; peak memory is O(n^2) for the pair index
arrays of the first outer point.
"""

from __future__ import annotations

import numpy as np

from .tls import _triple_scores

_PAIR_CHUNK = 1 << 21

compiled = False


def scan_triples(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    t2: float,
    i_lo: int,
    i_hi: int,
    w: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Scan triples whose smallest index lies in [i_lo, i_hi).

    Accepted triples (score strictly below ``t2``) increment the three pair
    entries of the flat upper-triangle buffer ``w`` (length n*n, entry at
    min*n + max) and ``counts[0]``; triples whose three labels agree also
    increment ``counts[1]`` when ``z`` is given.
    """
    n = x.shape[0]
    have_z = z is not None
    acc = 0
    win = 0
    for i in range(i_lo, i_hi):
        m = n - i - 1
        if m < 2:
            continue
        jj, kk = np.triu_indices(m, 1)
        base = i + 1
        for lo in range(0, jj.size, _PAIR_CHUNK):
            ja = jj[lo : lo + _PAIR_CHUNK] + base
            ka = kk[lo : lo + _PAIR_CHUNK] + base
            lam = _triple_scores(x[i], y[i], x[ja], y[ja], x[ka], y[ka])
            accept = lam < t2
            hits = int(np.count_nonzero(accept))
            if hits == 0:
                continue
            acc += hits
            jaa = ja[accept]
            kaa = ka[accept]
            np.add.at(w, i * n + jaa, 1)
            np.add.at(w, i * n + kaa, 1)
            np.add.at(w, jaa * n + kaa, 1)
            if have_z:
                win += int(np.count_nonzero((z[i] == z[jaa]) & (z[jaa] == z[kaa])))
    counts[0] += acc
    counts[1] += win
