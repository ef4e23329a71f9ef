"""Cluster partially observed series by imputing first and running k-means
on the completed, standardized windows, then score against true classes.

The two-stage composition is the simple baseline that a jointly trained
clusterer would try to beat; on well-separated synthetic classes it is
already near perfect.

Usage: python3 demos/cluster_two_stage.py [--seed 11] [--k 3]
"""

import argparse

import numpy as np

from potsmine import (
    LocfModel,
    TrainConfig,
    TwoStageKMeansModel,
    cluster,
    fit,
    generate_synthetic,
    purity,
    rand_index,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--k", type=int, default=3)
    args = ap.parse_args()

    ds = generate_synthetic(150, 24, 5, args.k, missing_rate=0.1,
                            seed=args.seed)
    model = TwoStageKMeansModel(inner=LocfModel(n_features=5), k=args.k)
    fit(model, ds, ds, TrainConfig(seed=args.seed))

    labels = cluster(model, ds)
    truth = ds.labels_array()
    sizes = np.bincount(labels, minlength=args.k)
    print(f"cluster sizes: {sizes.tolist()}")
    print(f"rand index vs true classes: {rand_index(labels, truth):.3f}")
    print(f"purity vs true classes:     {purity(labels, truth):.3f}")


if __name__ == "__main__":
    main()
