"""The edge Laplacian of a mesh level, eliminated by nested dissection.

Minus the Hessian of the barrier problem in `varsolve` is
L = sum of w (e_a - e_b)(e_a - e_b)^T / ell^2 over the mesh edges (a, b)
with a free end, and every Newton step solves one system with it.
`EdgeLaplacian` numbers the free nodes and solves those systems by
multifrontal nested dissection (George, SIAM J. Numer. Anal. 10, 1973).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .varsolve import MeshProfile

_LEAF = 16  # most free nodes in a leaf of the nested dissection
_PART = 1024  # free nodes whose fronts a solve holds at once, about


class _Front:
    """The n fronts of one batch, padded to s separator rows and r rows.

    Front k is [A B; B^T C] over its separator, then its border; pads are
    identity in A and zero elsewhere.  `solve` fills [A B 0 rhs] in rows
    k r to k r + s of an array r + 1 + (right-hand sides) wide, C and the
    border's right-hand side below them (a leaf batch has no C, so its
    fronts are s rows tall), and a last row for what falls on pads.
    L's values vals[src] go to (row, col); `sep` and `border` give each
    row's free position (nf + 1 and nf on pads); each `kids` entry (batch
    below, its fronts, their border rows and columns here, last use) adds
    the updates of that batch's fronts.
    """

    __slots__ = ("n", "s", "r", "row", "col", "src", "sep", "border", "kids")


def _distinct(a: np.ndarray) -> np.ndarray:
    """a's distinct values, sorted; np.unique hashes, which is slower here."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])[:len(a)]]


def _dissect(ij: np.ndarray):
    """Bisect grid nodes by grid lines: (owner, parent, first).

    A box of more than _LEAF nodes is cut by the middle grid line across
    the longer side of its nodes' bounding box; the nodes on that line are
    its separator and each nonempty side is a child box.  owner[v] is the
    tree node that holds v, parent[t] is -1 at the root, and the tree
    nodes at depth d are first[d]:first[d + 1].
    """
    owner = np.empty(len(ij), dtype=np.int64)
    parent, first = [np.array([-1])], [0, 1]
    nodes, box = np.arange(len(ij)), np.zeros(len(ij), dtype=np.int64)
    while len(nodes):
        cnt = np.bincount(box)
        lo = np.full((2, len(cnt)), len(ij))
        hi = np.zeros((2, len(cnt)), dtype=np.int64)
        for axis in (0, 1):
            np.minimum.at(lo[axis], box, ij[nodes, axis])
            np.maximum.at(hi[axis], box, ij[nodes, axis])
        axis = (hi[1] - lo[1] > hi[0] - lo[0]).astype(np.int64)
        mid = (lo + hi)[axis, np.arange(len(cnt))] // 2
        side = np.sign(ij[nodes, axis[box]] - mid[box])
        side[(cnt <= _LEAF)[box]] = 0
        on = side == 0
        owner[nodes[on]] = first[-2] + box[on]
        nodes, box = nodes[~on], 2 * box[~on] + (side[~on] > 0)
        kids = np.flatnonzero(np.bincount(box, minlength=2 * len(cnt)))
        box = np.searchsorted(kids, box)
        parent.append(first[-2] + kids // 2)
        first.append(first[-1] + len(kids))
    return owner, np.concatenate(parent), np.array(first[:-1])


class EdgeLaplacian:
    """L = sum of w (e_a - e_b)(e_a - e_b)^T / ell^2 over a mesh's edges (a, b).

    Free nodes are numbered i-major; pinned ends point at position nf.
    `solve` eliminates L by multifrontal nested dissection (George, SIAM
    J. Numer. Anal. 10, 1973).  Edges join nodes at most one column and
    one row apart, so every grid line separates the free nodes on its two
    sides (`_dissect`).  A tree node's front holds its separator, then its
    border: the ancestor-separator nodes that its subtree touches.
    """

    def __init__(self, mesh: MeshProfile, a: np.ndarray, b: np.ndarray):
        self.free = np.flatnonzero(mesh.free)
        self.nf = nf = len(self.free)
        pos = np.full(len(mesh.xy), nf)
        pos[self.free] = np.arange(nf)
        self.pa, self.pb, self.ell = pos[a], pos[b], mesh.ell
        self.ff = np.flatnonzero((self.pa < nf) & (self.pb < nf))
        self.fronts = self._analyse(mesh.ij[self.free]) if nf else []

    def _analyse(self, ij: np.ndarray) -> list:
        """The fronts of each batch, every batch after those it draws on."""
        nf = self.nf
        owner, parent, first = _dissect(ij)
        tn = len(parent)
        depth = np.repeat(np.arange(len(first) - 1), np.diff(first))
        height = np.zeros(tn, dtype=np.int64)
        for d in range(len(first) - 2, 0, -1):
            t = np.arange(first[d], first[d + 1])
            np.maximum.at(height, parent[t], height[t] + 1)
        # a batch is one tree height within the subtree of one tree node at
        # depth d, or above depth d, where d leaves about _PART free nodes
        # per subtree: a solve holds the fronts of one such part at a time
        d = min(max(0, math.ceil(math.log2(nf / _PART))), len(first) - 1)
        part = np.where(depth < d, tn, np.arange(tn))
        for e in range(d + 1, len(first) - 1):
            part[first[e]:first[e + 1]] = part[parent[first[e]:first[e + 1]]]
        key = part * tn + height
        batch = np.searchsorted(_distinct(key), key)
        count = np.bincount(batch)
        leaf_b = np.zeros(len(count), dtype=bool)
        leaf_b[batch[height == 0]] = True
        kid = np.empty(tn, dtype=np.int64)  # a tree node's front in its batch
        members = np.argsort(batch, kind="stable")
        kid[members] = np.arange(tn) - (np.cumsum(count)
                                        - count)[batch[members]]
        members = np.split(members, np.cumsum(count)[:-1])
        s = np.bincount(owner, minlength=tn)
        order = np.argsort(owner, kind="stable")
        loc = np.empty(nf, dtype=np.int64)  # separator row, in position order
        loc[order] = np.arange(nf) - (np.cumsum(s) - s)[owner[order]]
        # an edge from u to v in an ancestor separator puts v in the border
        # of every tree node from u's up to below v's
        p, q = self.pa[self.ff], self.pb[self.ff]
        down = depth[owner[p]] >= depth[owner[q]]
        u, v = np.where(down, p, q), np.where(down, q, p)
        del p, q, down
        cross = owner[u] != owner[v]
        keys, t, w, stop = [], owner[u[cross]], v[cross], owner[v[cross]]
        while len(t):
            keys.append(t * nf + w)
            t = parent[t]
            more = t != stop
            t, w, stop = t[more], w[more], stop[more]
        keys = _distinct(np.concatenate(keys or [np.zeros(0, np.int64)]))
        bt = keys // nf
        b = np.bincount(bt, minlength=tn)
        bstart = np.cumsum(b) - b
        ws = np.zeros(len(count), dtype=np.int64)
        wb = np.zeros(len(count), dtype=np.int64)
        np.maximum.at(ws, batch, s)
        np.maximum.at(wb, batch, b)
        wr = ws + wb

        def place(t, v):
            """Row of node v in front t, in its separator or its border."""
            at = np.searchsorted(keys, t * nf + v) - bstart[t] + ws[batch[t]]
            return np.where(owner[v] == t, loc[v], at)

        # L's entries in [A B]: the diagonal, separator edges both ways,
        # edges to the border, and the identity on separator pads
        grow = ws[batch] - s
        pad_t = np.repeat(np.arange(tn), grow)
        pad = (s[pad_t] + np.arange(len(pad_t))
               - np.repeat(np.cumsum(grow) - grow, grow))
        inner, e = ~cross, nf + np.arange(len(u))
        t = np.concatenate([owner, owner[u[inner]], owner[u[inner]],
                            owner[u[cross]], pad_t])
        h = batch[t]
        rows = kid[t] * np.where(leaf_b, ws, wr)[h] + np.concatenate(
            [loc, loc[u[inner]], loc[v[inner]], loc[u[cross]], pad])
        del t
        cols = np.concatenate([loc, loc[v[inner]], loc[u[inner]],
                               place(owner[u[cross]], v[cross]), pad])
        src = np.concatenate([np.arange(nf), e[inner], e[inner], e[cross],
                              np.full(len(pad), nf + len(e))])
        del u, v, e
        order = np.argsort(h, kind="stable")
        cut = np.cumsum(np.bincount(h, minlength=len(count)))[:-1]
        rows, cols, src = (x[order].astype(np.int32) for x in (rows, cols, src))
        del h, order
        # each batch's (n, s) free positions of separator rows and (n, r - s)
        # of border rows, as views of one flat array each
        sep = np.full(int(count @ ws), nf + 1)
        at = np.cumsum(count * ws) - count * ws
        t = owner
        sep[at[batch[t]] + kid[t] * ws[batch[t]] + loc] = np.arange(nf)
        border = np.full(int(count @ wb), nf)
        at, t = np.cumsum(count * wb) - count * wb, bt
        border[at[batch[t]] + kid[t] * wb[batch[t]] + np.arange(len(t))
               - bstart[t]] = keys % nf
        sep = np.split(sep, np.cumsum(count * ws)[:-1])
        border = np.split(border, np.cumsum(count * wb)[:-1])
        fronts = []
        for h, entries in enumerate(zip(*(np.split(a, cut)
                                          for a in (rows, cols, src)))):
            fr = _Front()
            fr.n, fr.s, fr.r = int(count[h]), int(ws[h]), int(wr[h])
            (fr.row, fr.col, fr.src), fr.kids = entries, []
            fr.sep = sep[h].reshape(fr.n, fr.s)
            fr.border = border[h].reshape(fr.n, fr.r - fr.s)
            fronts.append(fr)
        # a front's update C - B^T X goes to its parent's rows and columns
        # of the same nodes
        for g, fr in enumerate(fronts[:-1]):
            ts = members[g][parent[members[g]] >= 0]
            hp = batch[parent[ts]]
            for h in np.flatnonzero(np.bincount(hp)):
                up, on = fronts[h], hp == h
                tp = parent[ts[on]]
                real = fr.border[kid[ts[on]]] < nf
                at = np.where(real, place(tp[:, None], np.where(
                    real, fr.border[kid[ts[on]]], 0)), up.r)
                row = np.where(real, kid[tp][:, None] * up.r + at, up.n * up.r)
                idx = slice(None) if on.all() else kid[ts[on]]
                up.kids.append((g, idx, row.astype(np.int32),
                                at.astype(np.int32), h == hp.max()))
        return fronts

    def diff(self, x: np.ndarray) -> np.ndarray:
        """(x_a - x_b) / ell on every edge, with x = 0 at pinned ends."""
        xe = np.append(x, 0.0)
        return (xe[self.pa] - xe[self.pb]) / self.ell

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """Transpose of `diff`: per free node, the sum of v d z / d x."""
        n = self.nf + 1
        return (np.bincount(self.pa, v, n)
                - np.bincount(self.pb, v, n))[:-1] / self.ell

    def solve(self, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs for rhs shaped (nf, k), one batch at a time.

        Each batch's fronts, assembled from L's values and the updates of
        the fronts below, give X = A^-1 B and y = A^-1 r in one batched
        inverse and product and pass C - B^T X and r_border - B^T y up; X
        and y are kept for the back substitution x = y - X x_border, root
        first.  LAPACK's small triangular solves with many right-hand
        sides cost more than the inverse and a product.  A singular front
        raises np.linalg.LinAlgError.
        """
        n = self.nf + 1
        vals = np.concatenate([
            (np.bincount(self.pa, w, n) + np.bincount(self.pb, w, n))[:-1],
            -w[self.ff], [1.0]]) / (self.ell * self.ell)
        rhs = np.concatenate([rhs, np.zeros((2, rhs.shape[1]))])
        upd, kept = [], []
        for fr in self.fronts:
            sol, up = _eliminate(fr, vals, rhs, upd)
            kept.append(sol)
            upd.append(up)
        x = np.zeros_like(rhs)
        for fr, sol in zip(reversed(self.fronts), reversed(kept)):
            b = fr.r - fr.s
            x[fr.sep] = sol[..., b + 1:] - sol[..., :b] @ x[fr.border]
        return x[:-2]


def _eliminate(fr: _Front, vals: np.ndarray, rhs: np.ndarray, upd: list):
    """One batch of `EdgeLaplacian.solve`: ([X 0 y], its updates)."""
    m, s, r, k = fr.n, fr.s, fr.r, rhs.shape[1]
    rows, w = (r if fr.kids else s), r + 1 + k  # a leaf has no C
    f = np.zeros((m * rows + 1) * w)
    f[fr.row * w + fr.col] = vals[fr.src]
    f = f.reshape(-1, w)
    f[:-1].reshape(m, rows, w)[:, :s, r + 1:] = rhs[fr.sep]
    for h, idx, row, at, last in fr.kids:
        # a child's [C 0 r] lands in the same nodes' columns, then in the
        # pad column and the right-hand side
        at = np.concatenate([at, np.repeat(np.arange(r, w)[None], len(at), 0)],
                            axis=1)
        np.add.at(f.ravel(), ((row * w)[:, :, None] + at[:, None, :]).ravel(),
                  upd[h][idx].ravel())
        if last:
            upd[h] = None
    f = f[:-1].reshape(m, rows, w)
    sol = np.linalg.inv(f[:, :s, :s]) @ f[:, :s, s:]
    c = f[:, :s, s:r].transpose(0, 2, 1) @ sol
    if fr.kids:
        np.subtract(f[:, s:, s:], c, out=c)
    else:
        np.negative(c, out=c)
    return sol, c
