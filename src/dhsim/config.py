"""Default resource limits.

Every function reads these constants directly, except that
`reconstruct.global_density` and `statevector.evolve_state` take a
``dense_budget`` keyword in place of `DENSE_QUBITS`.  The CLI sets it
from the ``DH_DENSE_BUDGET`` environment variable for the global
density and the dual-picture check.
"""

# Coefficients below this magnitude are dropped after every sum/product.
PRUNE_EPS = 1e-14

# Hard cap on the number of stored terms in a single Pauli sum.  The
# effective cap is min(4**n, TERM_BUDGET); exceeding it raises, never
# truncates.  It also bounds the running sum of a large product, which
# drops exact cancellations but is not pruned, so terms that would cancel
# later still count.  At the default, only from n=10 up, where 4**n
# exceeds TERM_BUDGET, can that sum exceed the cap.
TERM_BUDGET = 1_000_000

# Largest n for which dense 2**n x 2**n objects may be materialized; no
# reconstruction block may hold more entries than such a matrix either.
DENSE_QUBITS = 10

# Largest network the descriptor engine will initialize.
MAX_NETWORK_QUBITS = 24
