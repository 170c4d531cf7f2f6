"""realwonder: exact Betti data of real wonderful compactifications.

Constructs wonderful models of G-arrangements (linear subspaces,
Kapranov's moduli of stable rational curves, configuration-space
compactifications) by iterated blow-up with exact Gaussian-rational
geometry, tracks mod-2 Betti numbers of complex and real loci, the
Smith-Thom deficiency ledger, and propagated verdicts (effective /
maximal / Galois maximal / conjugation space), and evaluates the
Hilbert-square deficiency formulas.
"""

from .gradedpoly import BettiVector
from .flags import FlagSet, Tri
from .subspaces import ProjSubspace
from .partitions import FramePartition, SetPartition
from .arrangement import Arrangement, Stratum
from .engine import RunResult, StepTrace, blow_up_step, wonderful_run
from .hilbert import SmithData, deficiency_effective_gm, deficiency_general
from .models import ModuliSpec, SpaceData, build_dcp, build_fm, build_kt, \
    build_moduli, build_ulyanov, parse_sigma

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BettiVector",
    "FlagSet",
    "FramePartition",
    "ModuliSpec",
    "ProjSubspace",
    "RunResult",
    "SetPartition",
    "SmithData",
    "SpaceData",
    "StepTrace",
    "Stratum",
    "Tri",
    "blow_up_step",
    "build_dcp",
    "build_fm",
    "build_kt",
    "build_moduli",
    "build_ulyanov",
    "deficiency_effective_gm",
    "deficiency_general",
    "parse_sigma",
    "wonderful_run",
    "__version__",
]
