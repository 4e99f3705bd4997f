"""The paper's four benchmark specifications (Figure 4).

Each module regenerates one evaluation workload as VHDL-subset source
plus its branch-probability profile, sized so the built SLIF matches the
paper's measured characteristics (lines / BV objects / channels) exactly:

========  =====  ====  ====
example   Lines   BV     C
========  =====  ====  ====
ans         632    45    64
ether      1021   123   112
fuzzy       350    35    56
vol         214    30    41
========  =====  ====  ====
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.errors import SlifError
from repro.specs import answering, ethernet, fuzzy, volume
from repro.vhdl.profiler import BranchProfile

_MODULES = {
    "ans": answering,
    "ether": ethernet,
    "fuzzy": fuzzy,
    "vol": volume,
}

SPEC_NAMES: List[str] = sorted(_MODULES)

#: the paper's Figure 4 rows: lines, objects, channels, and the Sparc 2
#: CPU seconds the authors measured (T-slif build time, T-est estimate
#: time; 0.00 means below the 10 ms reporting resolution)
PAPER_FIGURE4: Dict[str, Dict[str, float]] = {
    "ans": {"lines": 632, "bv": 45, "channels": 64, "t_slif": 2.20, "t_est": 0.00},
    "ether": {"lines": 1021, "bv": 123, "channels": 112, "t_slif": 10.40, "t_est": 0.00},
    "fuzzy": {"lines": 350, "bv": 35, "channels": 56, "t_slif": 0.46, "t_est": 0.00},
    "vol": {"lines": 214, "bv": 30, "channels": 41, "t_slif": 0.34, "t_est": 0.00},
}

#: the paper's Section 5 format comparison for the fuzzy example
PAPER_FORMAT_COMPARISON = {
    "slif-ag": {"nodes": 35, "edges": 56},
    "add": {"nodes": 450, "edges": 400},    # "over 450 ... 400"
    "cdfg": {"nodes": 1100, "edges": 900},  # "over 1100 ... 900"
}


#: Behaviors worth considering for a hardware mapping, per benchmark:
#: the computation-heavy procedures (largest software ``ict``) that a
#: designer would shortlist for the custom processor.  The simulator's
#: examples and benchmarks use these to build *contended* partitions —
#: moving them to hardware routes their traffic across the system bus,
#: which is where simulation and estimation start to disagree.
HW_CANDIDATES: Dict[str, List[str]] = {
    "ans": ["PlayMessages", "Beep", "DetectDtmf", "MeasureRing"],
    "ether": ["Parity", "NextBackoff", "Crc8Step", "HashAddr"],
    "fuzzy": ["ComputeCentroid", "EvaluateRule", "Convolve", "Min"],
    "vol": ["Calibrate", "FilterSample", "ComputeVolume", "Median3"],
}


def _module(name: str):
    try:
        return _MODULES[name]
    except KeyError:
        raise SlifError(
            f"unknown benchmark spec {name!r}; available: {SPEC_NAMES}"
        ) from None


@functools.lru_cache(maxsize=None)
def spec_source(name: str) -> str:
    """The VHDL source text of a bundled benchmark.

    Generated once per process and name: the text is an immutable
    ``str``, and every resolve of a bundled name asks for it.
    """
    return _module(name).source()


def spec_profile(name: str) -> BranchProfile:
    """The bundled branch-probability profile of a benchmark."""
    return _module(name).profile()


def spec_targets(name: str) -> Dict[str, int]:
    """The Figure 4 structural targets (lines/BV/C) of a benchmark."""
    mod = _module(name)
    return {
        "lines": mod.TARGET_LINES,
        "bv": mod.TARGET_BV,
        "channels": mod.TARGET_CHANNELS,
    }


def spec_hw_candidates(name: str) -> List[str]:
    """Hardware-mapping candidates for a bundled benchmark (may be empty)."""
    _module(name)  # validates the name
    return list(HW_CANDIDATES.get(name, []))


__all__ = [
    "HW_CANDIDATES",
    "PAPER_FIGURE4",
    "PAPER_FORMAT_COMPARISON",
    "SPEC_NAMES",
    "spec_hw_candidates",
    "spec_profile",
    "spec_source",
    "spec_targets",
]
