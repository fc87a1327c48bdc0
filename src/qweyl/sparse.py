"""The add-and-prune step shared by every sparse linear combination."""


def accumulate(out, pairs):
    """Add each ``(key, value)`` into the dict ``out`` and return it.

    A key whose sum is zero (falsy, for exact scalars and complex numbers
    alike) is removed.
    """
    for key, value in pairs:
        acc = out.get(key)
        if acc is not None:
            value = acc + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out
