"""Supervised-learning scaffolding: tables, three small model families,
held-out evaluation, covariate selection, and campaign reporting."""
