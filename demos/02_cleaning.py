"""
Two-step cleaning: drop duplicates, then drop contradictions
============================================================

Step 1 keeps the first occurrence of every (metrics, label) row and drops
the rest.  Step 2 removes every remaining case whose metric vector is still
shared by a case with the opposite label, i.e. whole contradictory groups.
The order is part of the contract: running the steps the other way round
can leave a duplicate behind.
"""

from defectclean.cleaning import clean, clean_corpus
from defectclean.datagen import synthetic_corpus
from defectclean.quality import within_quality

corpus = synthetic_corpus(seed=11, duplicate_rate=0.25, inconsistent_rate=0.12)

print(f"{'dataset':<12} {'before':>6} {'after':>6} {'dups':>5} "
      f"{'conflicts':>9} {'defective removed':>17}")
for ds in corpus:
    result = clean(ds)
    print(f"{ds.name:<12} {ds.case_count:>6} {result.cleaned.case_count:>6} "
          f"{result.removed_duplicates:>5} {result.removed_inconsistent:>9} "
          f"{result.removed_defective:>17}")

# The size identity always holds: before == after + removed.
ds = corpus.get("alpha1.0")
result = clean(ds)
assert ds.case_count == result.cleaned.case_count + result.removed_cases

# Cleaning is idempotent and the output carries no problem cases at all.
again = clean(result.cleaned)
assert again.removed_cases == 0
assert within_quality(result.cleaned).problem_free
print("\nre-cleaning removes nothing; output is problem-free")

# removed_indices names exactly which input rows disappeared, so a cleaned
# dataset can always be audited against its source.
print(f"{ds.name}: removed input rows {result.removed_indices[:10]}"
      f"{' ...' if len(result.removed_indices) > 10 else ''}")

# clean_corpus does all datasets at once and returns each dataset's
# CleanResult, the summary that the `defectclean clean` command writes to disk.
cleaned, summary = clean_corpus(corpus)
total = sum(row.removed_cases for row in summary)
print(f"\nwhole corpus: removed {total} of {sum(d.case_count for d in corpus)} cases")
