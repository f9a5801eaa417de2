"""Test oracles: objects of the derivation that no lovelab command runs.

Each module builds on the private primitives of its namesake in the
package: the far field, the J split, the third-moment expansion and the
symbolic assembly of the gamma^2 coefficient (``asymptotics``), the plate
samples and series (``capacitor2d``), the operator norms, the Nystrom
interpolant and the third moment of the charge density (``love``) and the
level-by-level tanh-sinh rule that the fixed rule is cut from
(``quadrature``).  A test that checks an oracle so checks those primitives
too.  An oracle takes its inputs as given: the input guards are the
package's, and their tests call the package.
"""
