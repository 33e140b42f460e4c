"""Multi-view graph clustering with homophily-adaptive hybrid graph filters.

The pipeline encodes node features and each view's adjacency with small
autoencoders, builds a joint aggregation kernel from the two embeddings,
filters the shared features with a homophily-ratio-weighted mix of low- and
high-pass polynomial filters, fuses the per-view results into a consensus
embedding and clusters it with k-means, refreshing the homophily estimate
from its own pseudo-labels as training proceeds.
"""

from .autograd import Adam, Tensor
from .clustering import (
    ClusterAssignment,
    accuracy,
    ari,
    kmeans,
    macro_f1,
    nmi,
)
from .datasets import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_embedding,
    save_dataset,
    save_embedding,
    save_report,
)
from .encoders import AutoEncoderParams, EncoderConfig
from .errors import ConfigError, DataRepairWarning, DivergenceError, NumericsWarning
from .filters import (
    FilterConfig,
    build_joint_gram,
)
from .fusion import target_distribution, update_hr
from .graphs import (
    MultiViewGraph,
    homophily_ratio,
    one_hot,
    random_walk_normalize,
    true_homophily_report,
)
from .spectral import SpectrumReport, compare_spectra, largest_gap, spectrum
from .training import (
    FusionState,
    TrainConfig,
    TrainingPipeline,
    TrainReport,
    train,
)

__version__ = "0.1.0"
