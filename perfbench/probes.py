"""Layer probes: each layer's public function timed alone on the
workload's matrix, serially and untimed by the run loop."""

from __future__ import annotations

from time import perf_counter as now

import numpy as np

from common import FORMATS, time_call, transient_mb

ENCODE_REPS = 3


def _fresh_csr(matrix):
    """A new CSR object over the same arrays (no cached plan on it)."""
    from repro.formats.csr import CSRMatrix

    return CSRMatrix(matrix.nrows, matrix.ncols, matrix.row_ptr, matrix.col_ind, matrix.values)


def layer_probes(matrix, x, triad_gbs: float) -> dict:
    """Per-format compress and kernel metrics: ``name -> (value, unit)``."""
    from repro.formats.conversions import convert
    from repro.kernels.plan import get_plan
    from repro.perf.bytes import bytes_per_iteration

    out = {}
    for fmt in FORMATS:
        encode, plan = [], []
        for _ in range(ENCODE_REPS):
            src = _fresh_csr(matrix)
            t0 = now()
            encoded = convert(src, fmt)
            t1 = now()
            get_plan(encoded)
            t2 = now()
            encode.append(t1 - t0)
            plan.append(t2 - t1)
        spmv_s = time_call(lambda: encoded.spmv(x), 0.3)
        census = bytes_per_iteration(encoded, threads=1).total_bytes
        out[f"compress.encode_ms.{fmt}"] = (np.median(encode) * 1e3, "ms")
        out[f"compress.bytes_per_nnz.{fmt}"] = (encoded.storage().total_bytes / matrix.nnz, "B")
        out[f"kernels.plan_ms.{fmt}"] = (np.median(plan) * 1e3, "ms")
        out[f"kernels.spmv_ms.{fmt}"] = (spmv_s * 1e3, "ms")
        out[f"kernels.transient_mb.{fmt}"] = (transient_mb(lambda: encoded.spmv(x)), "MB")
        out[f"kernels.bw_frac.{fmt}"] = (census / spmv_s / (triad_gbs * 1e9), "frac")
        if fmt == "csr-du":
            decoder = get_plan(encoded).decoder
            out["kernels.decode_ms.csr-du"] = (time_call(decoder.columns, 0.2) * 1e3, "ms")
    return out

