"""The sllab benchmark: see README.md and run.py."""
