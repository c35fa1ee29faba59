"""The two exception types of the package; each picks an exit code of ``lightcone``."""


class LightconeError(Exception):
    """An input that breaks a hypothesis of the computation; the message is the reason."""


class BadConfig(LightconeError):
    """A search configuration that cannot be read or breaks a rule; exits 4, printed as is."""
