from .gan import (
    CGanModel,
    GanModel,
    HyperParams,
    LABEL_VOCAB,
    TrainingLog,
    discriminator_spec,
    encode_labels,
    gan_generate,
    generator_spec,
    train_gan,
)
from .network import Network, NetworkSpec
from .optim import Adam

__all__ = [
    "Adam",
    "CGanModel",
    "GanModel",
    "HyperParams",
    "LABEL_VOCAB",
    "Network",
    "NetworkSpec",
    "TrainingLog",
    "discriminator_spec",
    "encode_labels",
    "gan_generate",
    "generator_spec",
    "train_gan",
]
