"""Every threshold and shared numeric default of the package, one line each.

Each comment says what the value is compared against, on the scale of the
data it judges, so that f -> s f, (K, lambda) -> (s K, lambda / s) and
(a_k, gamma_k) -> (s a_k, gamma_k / s) leave every route decision unchanged,
as they leave the equation. A `1 +` floor stays only where the 1 is the size
of I, E or the probe beside the term. The oracle keeps its own RCOND_LIMIT.
"""

import math

NODES = 64  # default master node count, and integral_load's sub-rule
TRUNCATION = 30  # default series depth: Taylor terms and nilpotency probe steps
TOL = 1e-10  # default --tol: annihilation max_j |KG[k, j]| <= TOL ||gamma_k|| max|K|,
# and the successive route's stop max|x_n - x_{n-1}| <= TOL max|x_n|
Q = 0.9  # default: the successive route runs for |lambda| <= Q / l
MAX_ITER = 200  # default iteration budget of the successive route
ORACLE_THRESHOLD = 1e-6  # default: oracle-check fails above it times max(max|x_oracle|, max|f|)
# (1 + |lambda| g) ||(I - lambda K W)^{-1}|| above it refuses lambda; an n x n singular
# value sigma counts when COND_LIMIT sigma > max(sigma_max, scale) (numerical_rank).
COND_LIMIT = 1e8
IDENTITY_TOL = 1e-10  # A0 = E when max|E - A0| <= IDENTITY_TOL (1 + max|A0|)
CONSISTENCY_TOL = 1e-10  # no solution: defect > it (||E - A0|| ||c|| + ||f_gamma||)
POLE_COEFF_TOL = 1e-9  # pole order: first max|A~_m| > POLE_COEFF_TOL (1 + max_k max|A~_k|)
RADIUS_Q = 0.9  # within rho q <= it: A~_p^{-1} B's series contracts; A(lambda)'s tail is unchecked
NILPOTENT_TOL = 1e-10  # probe term Q_m = (K W / g)^m P is negligible when max|Q_m| <=
COLLAPSE_RATIO = 1e-6  # NILPOTENT_TOL (1 + max|Q_1|) and <= COLLAPSE_RATIO max|Q_{m-1}|
EIGEN_FLOOR = 1e-12  # find-poles drops eigenvalues |mu| <= EIGEN_FLOOR g of K W
REAL_RATIO = 1e-9  # an eigenvalue cluster's mean is real when |Im| <= REAL_RATIO |mean|
# Eigenvalues chained by steps <= CLUSTER_RADIUS sqrt(max|mu| max(|mu_i|, |mu_j|)) are
# one; eigvals splits a defective double one by up to 5.3 sqrt(eps) max|mu|.
CLUSTER_RADIUS = 16.0 * math.sqrt(math.ulp(1.0))
NEWTON_TOL = 1e-15  # Gauss-Legendre nodes: Newton stops once max|dx| < NEWTON_TOL
# The low-rank core of K W (DiscreteKernel.core) is built from N = CORE_MIN_NODES on: a fresh
# kernel, prepare and one solve on it took 1.47, 1.13, 0.74 of the dense time at N = 160, 192, 256
CORE_MIN_NODES = 192  # (generated regular kernel; loaded_regular 0.95, 0.85, 0.62; 2-vCPU Xeon)
# Cross approximation stops at a cross with ||u|| ||v|| <= sqrt(N) CORE_TOL ||U V||_F (roundoff
# crosses: 2-3 eps) or a stall, in N / 8 rows, and accepts U V when K on its check set is
# within N CORE_TOL of it, relative; the trim drops a tail below half that unless Q QtK then
CORE_TOL = math.ulp(1.0)  # misses that bound, when every cross is kept
CORE_CROSSES = 16  # a stall: crosses past the relatively smallest (exact-rank sums: <= 12)
# Sampling K at the nodes and at the oracle's load points (expr.grid_blocks), its norm and
# a load's Cauchy matrix work in row blocks of at most GRID_BLOCK elements (512 KB), so that
GRID_BLOCK = 65536  # the sample is a solve's one N x N array and the oracle adds one (N + n)^2
