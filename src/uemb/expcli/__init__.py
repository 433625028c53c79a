"""Experiment configuration, runners, and the command-line interface."""
