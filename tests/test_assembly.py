"""Every solver model comes out of the shared row assembler unchanged.

The digests below were taken from the row builders that preceded the
shared assembler; each covers c, A (indptr, indices, data), senses, rhs,
lo, up and, for MIPs, the integer mask, bytes and dtypes included.  The
S subproblem digests were re-pinned when z moved out of those LPs into
their rhs map; they cover R (indptr, indices, data) and const as well, as
the LDR node-LP digests do.  The LDR-T and LDR-TH digests were taken
from the hand-written rhs maps that model.split_rows replaced, which
produces every state LP (S subproblem, LDR node LP) from its node rows.
"""

import hashlib

import numpy as np
import pytest

from mcsip.aggregate import Transformation, build_aggregation
from mcsip.hdr import HdrConfig, build_hdr_aggregated, build_hdr_msilp, generate_instance
from mcsip.ldr import LdrVariant, build_ldr_model
from mcsip.model import Csr, MipProblem, RowBlock, assemble, build_aggregated_extensive_form, \
    smat, split_rows
from mcsip.sddp import SddpConfig, SddpEngine, build_master

from conftest import scipy_csr

PINNED = {
    ("2x4", "hn"): {
        "ex":
            "3145c4aa53015fd84dd37cfc0604e9847cc7db13980b357039fcc84fc352d8eb",
        "master":
            "d06902e46c96b1e75639f5aa498301201be39aaa548bfd65e2d5299adff54773",
        "subproblems":
            "28d916782685e01f6c30548b94d551374b85b886fa2763d25ec5f632369cac9c",
        "ldr_master":
            "6a53231658c6c6fa326f08e7d237f128589b0c309dcbdb12e6d0ec766d23dc9e",
        "ldr_node_lps":
            "15b293a591cd4ad27799e0ac866f49f8a97a5f4a0f2641fc3503a6911e78bc2d",
        "ldr_t_master":
            "9bd1de14b68de363fbde69f18d2cb9bbd2df50b86d50fb1a01bc3ca72663d99a",
        "ldr_t_node_lps":
            "cb8b0b2614b777fb0b6e9d7281ea123601a341dc02bc243e98430554c1cea684",
        "ldr_th_master":
            "a21134158e00d0a917420a309d6daeacc45d21f6aa0a9382d477b77f85ad2c81",
        "ldr_th_node_lps":
            "afcdd9190629c4ce26d3e029c1d9977f7f397307d5191e51191869d8191d10bd",
    },
    ("2x4", "pm"): {
        "ex":
            "3fa3ae255888320c2c43327ce98d0ed312a79ec82db5a4ffec4a1606ede846fc",
        "master":
            "42b4f7b30948a722576429c035a5adb6d6e81883d82a695d02a5982c3fe9920e",
        "subproblems":
            "2df3b871107fcc0c2c62a9d4fc55af8ef0efe0b9b9da10d3fcfec570565befe2",
        "ldr_master":
            "5252afbb7211306dd7affdf56e708d9c7bc4f2bf228bfae9297b0298712458e6",
        "ldr_node_lps":
            "b52172ad90743c0a86072dff3e873ca781e4bd13783b27293e0607745f5bc30a",
        "ldr_t_master":
            "710fc08affe0aaa12421dd45094f51f263bf13b7a9fa5a8097b3003add99cef1",
        "ldr_t_node_lps":
            "a3c487e29e8a1c342f9122b79aa4eb2233fa7f3bf15b87dd33f9431e769b9216",
        "ldr_th_master":
            "697fa1bbec7e8cdd6d36777e266b5c88d8e5e2c590f397e2b14332b595b7c0ed",
        "ldr_th_node_lps":
            "36a56a6248b36d5c4ac9991fe9f8287b98a6947d73963824e2e2627a9ec7af08",
    },
    ("2x4", "fh"): {
        "ex":
            "c6645c4a9ae3cf3edccfc204608b9366b807de56d93db3d947c229118e003237",
        "master":
            "19a13b10f4efab868f0f17f7a76838dab8a2cb4f14900954466a44ad9928c340",
        "subproblems":
            "459a367939cbfc0a71bec53f5b9a7761397e443d9dc71e2437445f95d5769019",
        "ldr_master":
            "6751c8326dc78d02b550a474b01ec175f50fcb21f59213f8adc9be0a9feae50b",
        "ldr_node_lps":
            "64c0024ff2f8643b1944ffb474239f7ff094744e373b9b7c09eddd74953ea9a7",
        "ldr_t_master":
            "d5f4b9c03869e9e194a3272b511c0f28f68ec130b2c4f6378aaa660a6367ce49",
        "ldr_t_node_lps":
            "9287fd1d6e9d28de17f5acd82b36f733d83a7a42e26a368a21136ae32c23d15e",
        "ldr_th_master":
            "ca1f56c8425f521955acb7b6dd6f2c59702802654ae74e50fab26f2175282611",
        "ldr_th_node_lps":
            "e139a68e01a4771b83c68c440a915150a66c40c6a7d5b7d72009d1a2797e2805",
    },
    ("3x5", "pm"): {
        "ex":
            "99a38f79e984b49744e7e53446ff2f53acdc47a2e387d374f614791ac140a594",
    },
}


def _arrays(p):
    out = [p.c, p.A.indptr, p.A.indices, p.A.data, p.senses, p.rhs, p.lo, p.up]
    if isinstance(p, MipProblem):
        out.append(p.integer)
    return out


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def model_digests(grid: str, transform: str, only_ex: bool = False) -> dict[str, str]:
    cols, rows = map(int, grid.split("x"))
    inst = generate_instance(HdrConfig(cols=cols, rows=rows, capacity_pct=0.2, seed=5))
    tr = Transformation("pm", partial_attrs=(2,)) if transform == "pm" \
        else Transformation(transform)
    m = build_hdr_msilp(inst)
    agg = build_aggregation(m.tree, tr)
    out = {"ex": _digest(_arrays(build_aggregated_extensive_form(m, agg)))}
    if only_ex:
        return out
    out["master"] = _digest(_arrays(build_master(m, agg)[0]))
    engine = SddpEngine(m, agg, SddpConfig())
    out["subproblems"] = _digest(
        [a for sub in engine.subs.values() for a in
         _arrays(sub.lp) + [sub.R.indptr, sub.R.indices, sub.R.data, sub.const]])
    ma = build_hdr_aggregated(inst, agg)
    for kind, name in (("m", "ldr"), ("t", "ldr_t"), ("th", "ldr_th")):
        model = build_ldr_model(ma, build_aggregation(ma.tree, tr), LdrVariant(kind))
        out[f"{name}_master"] = _digest(_arrays(model.master))
        out[f"{name}_node_lps"] = _digest(
            [a for nid in sorted(model.node_lps) for a in
             _arrays(model.node_lps[nid].lp)
             + [model.node_lps[nid].R.indptr, model.node_lps[nid].R.indices,
                model.node_lps[nid].R.data, model.node_lps[nid].const]])
    return out


@pytest.mark.parametrize("grid,transform", sorted(PINNED))
def test_models_match_pinned_digests(grid, transform):
    pinned = PINNED[(grid, transform)]
    assert model_digests(grid, transform, only_ex=list(pinned) == ["ex"]) == pinned


def test_canonical_drops_rounds_and_dedupes_positional_keeps_rows():
    M = smat(np.array([[1.0, 1e-13], [1.0, 1e-13], [2.0, 0.0]]), (3, 2))
    # x_0 = 0.5 w_1 + 0.25 w_2 maps M's first column onto two model columns
    P = smat(np.array([[0.0, 0.5, 0.25], [1.0, 0.0, 0.0]]), (2, 3))
    blocks = [RowBlock([(M, 0, 1.0), (M, 1, -1.0)], np.array(["G", "G", "E"]),
                       np.array([1.0, 1.0, 2.0])),
              RowBlock([(M, P, 1.0), (None, 0, 1.0)], np.array(["G", "G", "L"]),
                       np.zeros(3), np.array([0, 2]))]
    A, senses, rhs = assemble(blocks, 3)
    assert senses.tolist() == ["G", "E", "G", "L"]
    assert rhs.tolist() == [1.0, 2.0, 0.0, 0.0]
    assert A.toarray().tolist() == [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0],
                                    [0.0, 0.5, 0.25], [0.0, 1.0, 0.5]]
    A, senses, rhs, R = split_rows(blocks, 0, 3)
    assert senses.size == rhs.size == A.shape[0] == R.shape[0] == 5 and R.shape[1] == 0
    A = scipy_csr(A)
    assert A[0, 1] == A[1, 1] == 1e-13 - 1.0
    assert A[3, 0] == 1e-13


def _positional_rows(blocks, n_cols):
    """Dense rows of blocks, one per listed row: each term's products added
    into a zero row in listed order, term by term, in M's entry order and
    then in P's row order, as the assembler sums duplicates."""
    dense, senses, rhs = [], [], []
    for blk in blocks:
        sel = np.arange(len(blk.rhs)) if blk.rows is None else np.asarray(blk.rows)
        out = np.zeros((sel.size, n_cols))
        for mat, P, sign in blk.terms:
            if mat is None or P is None:
                continue
            for o, i in enumerate(sel):
                for e in range(mat.indptr[i], mat.indptr[i + 1]):
                    q, v = mat.indices[e], sign * mat.data[e]
                    if isinstance(P, Csr):
                        for f in range(P.indptr[q], P.indptr[q + 1]):
                            out[o, P.indices[f]] += v * P.data[f]
                    else:
                        out[o, P + q] += v
        dense.append(out)
        senses += list(np.asarray(blk.senses)[sel])
        rhs += list(np.asarray(blk.rhs, dtype=float)[sel])
    return np.vstack(dense), senses, rhs


def test_split_rows_moves_the_state_terms_to_the_rhs_negated():
    """split_rows on random blocks over [w | u]: terms mapped by offsets and
    by Csr maps, several landing on one w column (B and W on the parent's
    z, a map summing two rows into one column).  A is the positional rows'
    u columns bit for bit, R their w columns negated, and rows, senses and
    const keep the listed order."""
    rng = np.random.default_rng(27)
    for _ in range(40):
        n_w, n, q = int(rng.integers(3, 9)), int(rng.integers(2, 7)), 3
        width = n_w + n
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            m = int(rng.integers(1, 6))

            def block_matrix():
                a = rng.normal(size=(m, q)) * 10.0 ** rng.integers(-6, 7, size=(m, q))
                a[rng.random((m, q)) < 0.4] = 0.0
                return smat(a, (m, q))

            pm = rng.normal(size=(q, width)) * (rng.random((q, width)) < 0.5)
            pm[:, 0] = rng.normal(size=q)  # every map row reaches w's first column
            P = smat(pm, (q, width))
            z_par = int(rng.integers(0, n_w - q + 1))
            terms = [(block_matrix(), n_w + int(rng.integers(0, n - q + 1)) if n >= q else P,
                      1.0),
                     (block_matrix(), z_par, -1.0), (block_matrix(), z_par, -1.0),
                     (block_matrix(), P, float(rng.choice([1.0, -1.0]))),
                     (None, 0, 1.0), (block_matrix(), None, 1.0)]
            rows = None if rng.random() < 0.5 else np.sort(
                rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            blocks.append(RowBlock(terms, rng.choice(["G", "E", "L"], size=m),
                                   rng.normal(size=m), rows))
        dense, senses, rhs = _positional_rows(blocks, width)
        A, got_senses, const, R = split_rows(blocks, n_w, n)
        assert A.shape == (len(rhs), n) and R.shape == (len(rhs), n_w)
        np.testing.assert_array_equal(A.toarray(), dense[:, n_w:])
        np.testing.assert_array_equal(R.toarray(), -dense[:, :n_w])
        assert got_senses.tolist() == senses and const.tolist() == rhs
        for mat in (A, R):  # one stored entry per nonzero, columns sorted in each row
            cols = np.split(mat.indices, mat.indptr[1:-1])
            assert all(np.all(np.diff(c) > 0) for c in cols)
