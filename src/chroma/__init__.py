"""Exact counting, MCMC sampling, and contour geometry for pattern-ordered
proper q-colorings of finite boxes and tori."""

__version__ = "0.2.0"
