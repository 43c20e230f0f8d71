"""Empty: the softmax and cross-entropy that were left of the gradient tape
live in `models`. The file stays because `bench/run.py:204` imports it by
name; it goes with the bench's dead tape metrics (ROADMAP item 4).
"""
