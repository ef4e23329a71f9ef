"""Classify irregularly observed two-class series with the decay-gated
recurrent model and print the full binary metrics report.

Usage: python3 demos/classify_decay.py [--seed 7] [--epochs 8]
"""

import argparse

from potsmine import (
    GrudLiteModel,
    TrainConfig,
    binary_classification_metrics,
    classify,
    fit,
    generate_synthetic,
    split,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--hidden-size", type=int, default=32)
    args = ap.parse_args()

    # 20% of the cells are missing at random; the decay mechanism sees the
    # per-feature time gaps instead of any filled-in values
    ds = generate_synthetic(300, 24, 5, 2, missing_rate=0.2, seed=args.seed)
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=args.seed)

    model = GrudLiteModel(n_steps=24, n_features=5, n_classes=2,
                          hidden_size=args.hidden_size, init_seed=args.seed)
    cfg = TrainConfig(epochs=args.epochs, batch_size=32, learning_rate=1e-2,
                      seed=args.seed, selection_metric="val_accuracy")
    _, ckpt = fit(model, train, val, cfg)
    print(f"elected epoch {ckpt.epoch} with validation accuracy {ckpt.metric:.3f}")

    probs = classify(model, test)
    labels = test.labels_array()
    report = binary_classification_metrics(probs[:, 1], labels)
    print(report.to_text())


if __name__ == "__main__":
    main()
