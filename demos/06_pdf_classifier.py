"""Best-fit-family selection: labeling channels and the kNN shortcut.

Labeling a channel directly means solving the optimal format for each
candidate family and measuring empirical quantization error; the kNN
classifier predicts the winner from standardized moment features alone.
"""

import numpy as np

from chanq.flsolver import (
    build_labeled_corpus,
    classify_pdf,
    default_classifier,
    label_channel,
    train_knn,
)
from chanq.pdfs import fit_pdf, sample
from chanq.profiling import standardized_moments, stats_from_samples

rng = np.random.default_rng(3)

print("== Direct labeling by empirical quantization error ==")
for family in ("laplace", "super_cauchy"):
    model = fit_pdf(0.0, 1.0, family)
    hits = sum(label_channel(sample(model, 50_000, rng), 8) == family for _ in range(10))
    print(f"  {family:13s} draws labeled {family}: {hits}/10")

print("\n== Moment features separate the families ==")
for family in ("laplace", "super_cauchy"):
    model = fit_pdf(0.0, 1.0, family)
    feats = standardized_moments(stats_from_samples(sample(model, 50_000, rng)))[0]
    print(f"  {family:13s} (nu1, nu3, nu4, nu5, nu6) = "
          + np.array2string(feats, precision=2))

print("\n== kNN on a small fresh corpus ==")
feats, labels, true = build_labeled_corpus(120, seed=5, samples_per_channel=20_000)
model = train_knn(feats[:90], labels[:90], k=12)
pred = classify_pdf(feats[90:], model)
acc = float(np.mean([p == l for p, l in zip(pred, labels[90:])]))
print(f"  held-out accuracy on 30 channels: {acc:.2f}")

print("\n== The packaged default classifier (used by cw_pdf_aware) ==")
knn = default_classifier(8)
print(f"  {len(knn.labels)} training channels, k = {knn.k}")
probe = sample(fit_pdf(0.0, 1.0, "super_cauchy"), 50_000, rng)
feat = standardized_moments(stats_from_samples(probe))
print(f"  heavy-tailed probe classified as: {classify_pdf(feat, knn)[0]}")
