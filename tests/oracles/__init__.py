"""Test oracles: objects of the derivation that no lovelab command runs.

Each module builds on the private primitives of its namesake in the
package: the Bessel-sum kernels, the Green traces and the J split
(``asymptotics``), the plate samples and series (``capacitor2d``), the
operator norms and the Nystrom interpolant (``love``), the single
sequence-transform value (``conjectures``) and the scaled Bessel functions
(``specfun``).  A test that checks an oracle so checks those primitives
too.
"""
