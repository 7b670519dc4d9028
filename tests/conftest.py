import os
import sys

# allow running the suite from a checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
