"""Every numerical tolerance of the package, in one place.

``RANK_RTOL``
    A partialled treatment column is collinear with the other regressors when
    its weighted norm, or a pivot of the QR on the other treatments, is at
    most ``RANK_RTOL`` times the largest weighted column norm of the design.
``DENOM_RTOL``
    The fixed-effects coefficient is undefined when its denominator
    ``|sum(n * eps * d_target)|`` is below ``DENOM_RTOL`` times the total cell
    size.
``CANCEL_RTOL``, ``DRAW_MAX``
    A twfe bootstrap draw is read off per-group tables only where each pivot
    it decides on keeps over ``CANCEL_RTOL`` of its unpartialled diagonal and
    its size and square sums stay below ``DRAW_MAX``, where no refit can
    overflow; any other draw is refitted.
``VALUE_TOL``
    Treatment values no more than ``VALUE_TOL`` apart are one value (CSV
    round-trip noise); see the rule in :mod:`multidid.panel`.
"""

RANK_RTOL = 1e-10
DENOM_RTOL = 1e-12
VALUE_TOL = 1e-12
CANCEL_RTOL = 1e-6
DRAW_MAX = 2.0 ** 960
