"""Is the standard genetic code a function of base content alone?

Partitions the 64 codons by content, measures where translation stays
constant inside a class, and contrasts the real table with a
synthetically symmetrized one that depends on content only.
"""

from codonlab import (
    builtin_standard_code,
    partition_classes,
    prefix_significance,
    symmetrized_code,
)

code = builtin_standard_code()
report = partition_classes(code)

print(f"Code: {code.name} (table id {code.id})")
print(f"  sense codons {len(code.sense_codons)}, stops {len(code.stop_codons)},"
      f" distinct amino acids {len(code.amino_acid_image)}")
print()

print("Coherent classes (every member codon gives the same product):")
for cls in report.per_class:
    if cls.coherent:
        print(f"  {cls.multiset.canonical_word} -> {cls.products[0]}")
print(f"  total: {report.coherent_count} of {len(report.per_class)}")
print()

agu = next(c for c in report.per_class if c.multiset.canonical_word == "AGU")
print("One incoherent class in full, content {A, G, U}:")
for codon, product in zip(agu.codons, agu.products):
    print(f"  {codon} -> {product}")
print()

print(f"Same-class codon pairs:      {report.pairs_total}")
print(f"  with different products:   {report.pairs_violating}"
      f"  (fraction {report.fraction:.4f})")
print(f"  excluding stop codons:     {report.pairs_violating_excluding_stop}"
      f" of {report.pairs_total_excluding_stop}")
print()

prefixes = prefix_significance(code)
degenerate = [e.prefix for e in prefixes.per_prefix if e.fully_degenerate]
print(f"Two-base prefixes where the third base never matters: {len(degenerate)} of 16")
print(f"  {', '.join(degenerate)}")
print(f"A code ignoring the third base could name at most 16 products;"
      f" this one names {len(code.amino_acid_image)}.")
print()

flattened = symmetrized_code(code)
flat_report = partition_classes(flattened)
stops_left = " plus stop" if "*" in flattened.aas else ""
print("After forcing every class to its lowest-index member's product:")
print(f"  violating pairs: {flat_report.pairs_violating},"
      f" coherent classes: {flat_report.coherent_count} of 20,"
      f" distinct products left: {len(flattened.amino_acid_image)}{stops_left}")
