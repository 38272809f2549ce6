#!/usr/bin/env python3
"""The full pipeline: datasets, per-class models, classification, generation."""

import numpy as np

from scengen import (TrainConfig, TwoModelClassifier, average_da,
                     baum_welch_fit, build_datasets, classify,
                     decode_scenario, evaluate_classifier, qhmm_samples,
                     reference_three_event_system, train_qhmm)

system = reference_three_event_system()
prob_ds, noprob_ds = build_datasets(system, max_len=4, p_min=1e-3,
                                    test_fraction=0.25, seed=9)

# One generative model per class, trained on that class's train split only.
models = {}
for name, ds in (("probable", prob_ds), ("no_probable", noprob_ds)):
    config = TrainConfig(dim=4, multiplicity=1, seed=0)
    models[name], records = train_qhmm(ds.sequences("train"), config,
                                       ds.alphabet_size)
    print(f"{name}: loss {records[0].loss:.3f} -> {records[-1].loss:.3f} "
          f"over {len(records)} batches")

# Mean description accuracy per model and split (1 = certain, 0 = random).
print("\nmean DA (model x split):")
for name, model in models.items():
    for ds_name, ds in (("probable", prob_ds), ("no_probable", noprob_ds)):
        for split in ("train", "test"):
            value = average_da(model, ds.sequences(split))
            print(f"  model={name:12s} data={ds_name:12s} {split:5s} {value:+.3f}")

# The two-model rule: score a sequence under both models, pick the larger
# DA, break exact ties toward no_probable.
clf = TwoModelClassifier(models["probable"], models["no_probable"])
labeled_test = prob_ds.labeled("test") + noprob_ds.labeled("test")
evaluation = evaluate_classifier(clf, labeled_test)
print("\nheld-out accuracy:", evaluation.accuracy)
print("confusion (rows true, cols predicted, order [probable, no_probable]):")
print(evaluation.confusion)

for sequence, label in labeled_test:
    result = classify(clf, sequence)
    print(f"  {list(sequence)} true={label:12s} predicted={result.label:12s} "
          f"da=({result.da_probable:+.3f}, {result.da_no_probable:+.3f})")

# Generation from a given system state: encode the history that produced
# the state as a prefix, filter the belief through it, then sample.
prefix = [0]  # the walk so far: event A failed
print("\nscenarios generated by the probable model after prefix [fail A]:")
rng = np.random.default_rng(5)
for tail in qhmm_samples(models["probable"], 3, 5, rng, prefix=prefix).tolist():
    full = prefix + tail
    try:
        steps = [(system.events[i].id, a)
                 for i, a in decode_scenario(system, full)]
    except Exception:
        steps = "(not a legal walk)"
    print(f"  symbols {full} -> {steps}")

# The same comparison with classical HMMs runs through identical code paths.
hmm_models = {}
for name, ds in (("probable", prob_ds), ("no_probable", noprob_ds)):
    hmm_models[name] = baum_welch_fit(ds.sequences("train"), 4,
                                      alphabet_size=ds.alphabet_size,
                                      seed=0).model
hmm_clf = TwoModelClassifier(hmm_models["probable"], hmm_models["no_probable"])
print("\nclassical HMM pair accuracy on the same test split:",
      evaluate_classifier(hmm_clf, labeled_test).accuracy)
