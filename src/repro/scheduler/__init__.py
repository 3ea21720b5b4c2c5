"""ILP scheduling: task models, LP solver, materialisation."""
