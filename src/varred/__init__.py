"""Variable reduction by nonlinear elimination as a right preconditioner for
gradient descent, with benchmark problems and a CLI harness."""
