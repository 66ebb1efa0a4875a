"""Every numerical tolerance of the package, in one place.

``RANK_RTOL``
    A partialled treatment column is collinear with the other regressors when
    its weighted norm, or a pivot of the QR on the other treatments, is at
    most ``RANK_RTOL`` times the largest weighted column norm of the design.
``DENOM_RTOL``
    The fixed-effects coefficient is undefined when its denominator
    ``|sum(n * eps * d_target)|`` is below ``DENOM_RTOL`` times the total cell
    size.
``VALUE_TOL``
    Treatment values no more than ``VALUE_TOL`` apart are one value (CSV
    round-trip noise); see the rule in :mod:`multidid.panel`.
"""

RANK_RTOL = 1e-10
DENOM_RTOL = 1e-12
VALUE_TOL = 1e-12
