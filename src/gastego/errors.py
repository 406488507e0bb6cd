"""Exception types shared across the toolkit."""


class StegoError(Exception):
    """Base class for every error this package raises deliberately."""


class MalformedContainer(StegoError):
    """The byte stream is not a usable RIFF/WAVE container."""


class UnsupportedFormat(StegoError):
    """The WAV is valid but not PCM with a supported bit depth."""


class TruncatedData(StegoError):
    """The data chunk declares more bytes than the file contains."""


class OversizeOutput(StegoError):
    """The audio is too large for the 32-bit size fields of a RIFF/WAVE file."""


class EmptyMessage(StegoError):
    """An operation that needs message content received zero bytes."""


class UnreachableOptimum(StegoError):
    """Individuals are too short to ever cover the message's value set."""


class InsufficientCapacity(StegoError):
    """The payload does not fit the cover even with zero rejections."""


class CapacityExhaustedBySkips(StegoError):
    """Rejections consumed the remaining samples before the payload was placed."""


class BitDepthMismatch(StegoError):
    """Config/key bit depth disagrees with the audio buffer."""


class KeyMismatch(StegoError):
    """The stego buffer cannot hold the payload the key declares."""


class SnrNotDefined(StegoError):
    """SNR is undefined: the reference signal has zero energy but noise is present."""


class KeyParseError(StegoError):
    """A key file violates the documented key file format."""
