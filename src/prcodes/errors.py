"""Exception types shared across the package, and the size table that
every exhaustive computation checks its degree k against, and the
decoder its block length n.

Each limit below is the largest supported k or n, with the measured cost
at the boundary (2-vCPU VM).  check_k is the only code that refuses a
size.
"""

# gf2.first_primitive, and so listing the degree-k family: first_primitive
# takes 0.001 s at k = 24; enumerate_primitives(24) takes 1.9 s in a fresh
# process, 1.2 s of it in pair_leaders, with a 74 MB peak RSS
ENUMERATION_CAP = 24
# gf2.is_primitive factors 2^k - 1, and its Miller-Rabin bases are proven
# only below 2^64; 1+x+x^3+x^4+x^64 takes 1.4 ms, while Pollard rho on
# 2^256 - 1 was still running after 25 s
PRIMITIVITY_CAP = 64
# construct.codeword_set holds 2^k Python ints: an 81 MB tracemalloc peak at
# k = 20, n = 64, doubling with each k beyond
CODEWORD_SET_CAP = 20
# weights.weight_enumerator_exact counts 2^k codewords up to n = 192, else
# 2^k - 1 windows: 0.09 s at k = 24, n = 120, and 0.11-0.13 s at n = 192-1000
ENUMERATOR_CAP = 24
# a whole degree-k ensemble (its averages, dmin, verify_existence), summed
# by weights.ensemble_summed_counts in a fresh process: 1.5 s at k = 17,
# n = 34, and 2.7 s at k = 18, n = 36, 3.1 s at n = 64 and 5.1 s at n = 192
# (the span kernel), with a 0.65 MiB tracemalloc peak at n = 40.  Past
# n = 192 the window kernel's cost does not grow with n but is the larger:
# 7.0 s at k = 17 and 13.6 s at k = 18, n = 300, accepted as the cost of
# those lengths rather than refused by a cap that depends on n.
# `dmin --scan` and `kld` at k = 18, n = 192 take 5.4-5.9 s end to end
ENSEMBLE_CAP = 18
# awgn exhaustive decoding costs 2^k * n flops per decoded trial, and
# simulate_wer decodes only the trials it cannot certify, most of them in
# float32 and the rest exactly, one at a time: in a fresh process, 16 trials
# at k = 20, n = 64 take 0.075 s at 0 dB and 0.02 s at 4-8 dB; 256 take
# 0.34 s at 0 dB, 0.11 s at 4 dB and 0.03 s at 8 dB, 12 ms of it listing the
# light codewords
DECODER_CAP = 20
# awgn decoding holds buffers, sign tables and a light-codeword list of
# O(n) each, about 0.1 MB per coordinate at k = DECODER_CAP: 2,048 trials
# at 4 dB peak at 52 MB RSS at n = 64, 256 MB at n = 2100 and 439 MB at
# n = 4096 (fresh processes), where n = 300,000 would ask for 4.9 GB of
# noise buffers alone
DECODER_LENGTH_CAP = 4096
# simulate refuses k >= 12 without --allow-slow (the CLI's one slow gate):
# 20,000 trials at k = 12, n = 24 take 0.11 s at 0 dB, 0.05 s at 3 dB and
# 0.03 s at 6-9 dB, so the default 10^7 take 15 s to about a minute
SLOW_SIMULATE_K = 12


class UnsupportedRangeError(ValueError):
    """A size parameter exceeds the supported enumeration or search cap."""


def check_k(operation: str, k: int, cap: int, low: int = 1, name: str = "k") -> None:
    """Refuse a degree k, or the size the message names `name`, outside
    low..cap for the named operation."""
    if not low <= k <= cap:
        raise UnsupportedRangeError(f"{operation} supports {low} <= {name} <= {cap}, got {k}")


class InconsistentEnumeratorError(ValueError):
    """A weight transform produced a negative or non-integer count.

    Raised when the input claimed to be the weight distribution of a
    linear code but the transform proves otherwise.
    """


class TheoremViolationError(RuntimeError):
    """An exhaustive search failed to find a witness that is guaranteed
    to exist; indicates a bug, never an expected outcome."""
