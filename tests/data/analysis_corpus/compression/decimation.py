"""The first-loaded ``_lift``: twelve unfused array expressions."""


def _lift(a):
    t = (a + a) * (a - a) + (a * a) / (a + 1.0)
    u = (t + a) * (t - a) + (t * t) / (a + 1.0)
    v = (u + t) * (u - a) + (u * a) / (t + 1.0)
    return v
