"""Shared test settings.

``--hypothesis-profile thorough`` runs every property test that does not
set its own example count with 2000 examples.
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=2000, deadline=None)
