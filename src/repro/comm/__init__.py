"""Pluggable wire-format subsystem for the BFS exchanges.

The compression + sieve layer of Lv et al. (arXiv:1208.5542) applied to
this repo's 1D/2D BFS: :mod:`~repro.comm.codecs` defines the wire
formats (the ``raw`` and ``auto`` names, and :class:`DeltaVarintCodec`,
``auto``'s main inner form, as an instance),
:mod:`~repro.comm.sieve` the exact duplicate-candidate filter, and
:mod:`~repro.comm.channel` the :class:`CommChannel` every exchange site
goes through.  Select with ``run_bfs(..., codec=..., sieve=...)`` or the
``--codec``/``--sieve`` CLI flags.
"""

from repro.comm.channel import CommChannel, ExchangeInfo
from repro.comm.codecs import (
    CODECS,
    AutoCodec,
    Codec,
    CodecError,
    DeltaVarintCodec,
    RawCodec,
    VertexRange,
    get_codec,
)
from repro.comm.sieve import Sieve, make_sieve

__all__ = [
    "CODECS",
    "AutoCodec",
    "Codec",
    "CodecError",
    "CommChannel",
    "DeltaVarintCodec",
    "ExchangeInfo",
    "RawCodec",
    "Sieve",
    "VertexRange",
    "get_codec",
    "make_sieve",
]
