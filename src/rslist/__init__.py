"""Reed-Solomon list decoding with re-encoding and coordinate transformation."""

from .decoder import DecodeReport, decode_reduced
from .factorization import CandidateMessage
from .galois import Field
from .koetter import InterpolationPoint, InterpolationProblem
from .rs_codec import CodeSpec

__version__ = "0.1.0"
