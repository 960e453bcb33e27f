"""The numerical tolerances of mcsip, each defined once here and imported by
the modules that test against it."""

import math

FEAS_TOL = 1e-7      # sign and support tolerance of a Farkas certificate
INT_TOL = 1e-6       # a value this close to an integer counts as integral
MIP_GAP = 1e-6       # relative gap at which branch and bound drops a node
VIOL_GUARD = 1e-9    # absolute slack below which a cut does not separate
THETA_LB = 0.0       # cost-to-go lower bound, valid for nonnegative costs
PROB_TOL = 1e-9      # how far a transition probability or row sum may stray
PRUNE_TOL = 1e-15    # scenario paths below this probability are dropped
DROP_TOL = 1e-12     # canonical models drop coefficients this small
CHAIN_TOL = 1e-7     # how far a product chain's row sum may stray from 1 and stay
DENOM_FLOOR = 1e-9   # a ratio's denominator counts as zero at or below this
ORDER_TOL = 1e-6     # how far a stage-only objective may sit below the full-history one
EPS_EXACT = 1e-6     # exact mode's default relative lag of an accepted cost-to-go
EPS_POLICY = 1e-15   # a policy evaluation's vanishing eps: VIOL_GUARD decides
ACCEPT_TOL = math.sqrt(1e-9) * 10  # linprog's tolerance for accepting an optimum
