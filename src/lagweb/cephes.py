"""The standard normal quantile, bit for bit Cephes ndtri, on Python floats.

A port of Moshier's Cephes ndtri (Methods and Programs for Mathematical
Functions, 1989), which scipy.special.ndtri also runs: the same
coefficients, the same operations in the same order, and the platform's log
and sqrt.  Only the quasi-random sphere of n >= 4 uses it, and it imports
this module on first use: importing scipy.special instead would add about
0.15 s and 22 MB resident, and keeping the port out of webbing.py spares
every n <= 3 process its compilation (0.2 to 1 MB of stage peak without
cached bytecode).
"""

import math

# P0/Q0 for |y - 1/2| <= 1/2 - e^-2, then P1/Q1 and P2/Q2 in 1/z for
# z = sqrt(-2 ln y) below and above 8; the leading 1 of each Q is implied
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0)
Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)
EXP_M2 = 0.13533528323661269189  # e^-2, where the central branch ends


def _polevl(x: float, coef, acc: float = 0.0) -> float:
    """acc x^N + coef[0] x^(N-1) + ... + coef[-1] by Horner, in Cephes'
    order: acc = 0 is its polevl (0 x + coef[0] is exact), acc = 1 p1evl."""
    for c in coef:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """The x with Phi(x) = y, for 0 < y < 1."""
    upper = y > 1.0 - EXP_M2
    if upper:
        y = 1.0 - y
    if y > EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, P0) / _polevl(y2, Q0, 1.0))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (P1, Q1) if x < 8.0 else (P2, Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, 1.0)
    return x if upper else -x
