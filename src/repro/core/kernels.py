"""The array engines' kernel tier: NumPy is the only one."""


def kernel_tier() -> str:
    """The active kernel tier, recorded in benchmark environments."""
    return "numpy"
