__version__ = "0.1.0"
SCHEMA_VERSION = "1.0.0"

# the methods and the bath and worker defaults shared by the CLI parser and the library
METHODS = ("analytic", "lindblad", "multimode")
DEFAULT_N_MODES = 2001
DEFAULT_WINDOW = 40.0
WORKERS_ENV = "LORENTZBATH_WORKERS"
