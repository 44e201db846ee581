import os
import sys

# the oracles next to the tests, and the package from the source tree,
# so that one test file runs alone with no PYTHONPATH
TESTS = os.path.dirname(__file__)
sys.path.insert(0, TESTS)
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))
