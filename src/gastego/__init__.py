"""Keyed audio steganography in WAV bit layers.

Messages are XOR-obfuscated, scattered over the samples by a keyed
permutation, and written into chosen bit layers. A per-sample optimizer
(closed-form or genetic) reshapes each carrier sample to minimize audible
distortion, a verification threshold rejects samples that would deviate too
far, and extraction replays the keyed walk bit-exactly.
"""

from .bitplane import LayerMask
from .errors import StegoError
from .ga_adjust import GaParams
from .keystream import MasterKey
from .msg_ga import MsgGaParams, derive_key_from_genes, evolve
from .pipeline import (
    EmbedConfig,
    EmbedReport,
    StegoKey,
    embed,
    extract,
    format_key_file,
    parse_key_file,
)
from .wav_io import AudioBuffer, parse_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "EmbedConfig",
    "EmbedReport",
    "GaParams",
    "LayerMask",
    "MasterKey",
    "MsgGaParams",
    "StegoError",
    "StegoKey",
    "derive_key_from_genes",
    "embed",
    "evolve",
    "extract",
    "format_key_file",
    "parse_key_file",
    "parse_wav",
    "write_wav",
]
