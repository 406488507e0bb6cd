"""Keyed audio steganography in WAV bit layers.

Messages are XOR-obfuscated, scattered over the samples by a keyed
permutation, and written into chosen bit layers. A per-sample optimizer
(closed-form or genetic) reshapes each carrier sample to minimize audible
distortion, a verification threshold rejects samples that would deviate too
far, and extraction replays the keyed walk bit-exactly.
"""

from .bitplane import (
    LayerMask,
    adjust_nearest,
    alter,
    distance,
    oracle_nearest,
    sample_raw,
    sample_value,
)
from .errors import (
    BitDepthMismatch,
    CapacityExhaustedBySkips,
    EmptyMessage,
    InsufficientCapacity,
    KeyMismatch,
    KeyParseError,
    LengthMismatch,
    MalformedContainer,
    SnrNotDefined,
    StegoError,
    TruncatedData,
    UnreachableOptimum,
    UnsupportedFormat,
)
from .ga_adjust import GaParams, run_ga
from .keystream import (
    MasterKey,
    SplitMix64,
    derive_seed,
    fnv1a64,
    permute_indices,
    xor_keystream,
)
from .msg_ga import MsgGaParams, derive_key_from_genes, evolve, profile_message
from .pipeline import (
    EmbedConfig,
    EmbedReport,
    StegoKey,
    capacity_bits,
    embed,
    extract,
    format_key_file,
    parse_key_file,
    snr_db,
)
from .wav_io import AudioBuffer, parse_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "BitDepthMismatch",
    "CapacityExhaustedBySkips",
    "EmbedConfig",
    "EmbedReport",
    "EmptyMessage",
    "GaParams",
    "InsufficientCapacity",
    "KeyMismatch",
    "KeyParseError",
    "LayerMask",
    "LengthMismatch",
    "MalformedContainer",
    "MasterKey",
    "MsgGaParams",
    "SnrNotDefined",
    "SplitMix64",
    "StegoError",
    "StegoKey",
    "TruncatedData",
    "UnreachableOptimum",
    "UnsupportedFormat",
    "adjust_nearest",
    "alter",
    "capacity_bits",
    "derive_key_from_genes",
    "derive_seed",
    "distance",
    "embed",
    "evolve",
    "extract",
    "fnv1a64",
    "format_key_file",
    "oracle_nearest",
    "parse_key_file",
    "parse_wav",
    "permute_indices",
    "profile_message",
    "run_ga",
    "sample_raw",
    "sample_value",
    "snr_db",
    "write_wav",
    "xor_keystream",
]
