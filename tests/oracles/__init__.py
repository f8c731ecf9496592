"""Test oracles: plain second implementations of optimized code paths.

Each oracle is the straightforward form of something the package does
faster (a prefilter, an index, a sparse kernel).  Parity tests compare
the package against them; nothing outside ``tests/`` imports them.
"""
