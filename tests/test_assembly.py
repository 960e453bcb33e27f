"""Every solver model comes out of the shared row assembler unchanged.

The digests below were taken from the row builders that preceded the
shared assembler; each covers c, A (indptr, indices, data), senses, rhs,
lo, up and, for MIPs, the integer mask, bytes and dtypes included.  The
S subproblem digests were re-pinned when z moved out of those LPs into
their rhs map; they cover R (indptr, indices, data) and const as well, as
the LDR node-LP digests do.
"""

import hashlib

import numpy as np
import pytest

from mcsip.aggregate import Transformation, build_aggregation
from mcsip.hdr import HdrConfig, build_hdr_aggregated, build_hdr_msilp, generate_instance
from mcsip.ldr import LdrVariant, build_ldr_model
from mcsip.model import MipProblem, RowBlock, assemble, build_aggregated_extensive_form, smat
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
    model = build_ldr_model(ma, build_aggregation(ma.tree, tr), LdrVariant("m"))
    out["ldr_master"] = _digest(_arrays(model.master))
    out["ldr_node_lps"] = _digest(
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
    A, senses, rhs = assemble(blocks, 3, canonical=True)
    assert senses.tolist() == ["G", "E", "G", "L"]
    assert rhs.tolist() == [1.0, 2.0, 0.0, 0.0]
    assert A.toarray().tolist() == [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0],
                                    [0.0, 0.5, 0.25], [0.0, 1.0, 0.5]]
    A, senses, rhs = assemble(blocks, 3, canonical=False)
    assert senses.size == rhs.size == A.shape[0] == 5
    A = scipy_csr(A)
    assert A[0, 1] == A[1, 1] == 1e-13 - 1.0
    assert A[3, 0] == 1e-13
