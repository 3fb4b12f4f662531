"""Default resource limits.

Functions that can allocate large objects take keyword overrides; these
constants are only the fallbacks.  The CLI reads the ``DH_DENSE_BUDGET``
environment variable in place of `DENSE_QUBITS` for the dual-picture check.
"""

# Coefficients below this magnitude are dropped after every sum/product.
PRUNE_EPS = 1e-14

# Hard cap on the number of stored terms in a single Pauli sum.  The
# effective cap is min(4**n, TERM_BUDGET); exceeding it raises, never
# truncates.
TERM_BUDGET = 1_000_000

# Largest n for which dense 2**n x 2**n objects may be materialized; no
# reconstruction block may hold more entries than such a matrix either.
DENSE_QUBITS = 10

# Largest network the descriptor engine will initialize.
MAX_NETWORK_QUBITS = 24
