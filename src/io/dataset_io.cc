#include "src/io/dataset_io.h"

#include <fstream>
#include <sstream>

namespace dseq {

SequenceDatabase ReadTextDatabase(std::istream& sequences,
                                  std::istream* hierarchy) {
  DictionaryBuilder builder;
  std::vector<std::vector<std::string>> raw_sequences;
  std::string line;
  while (std::getline(sequences, line)) {
    if (!line.empty() && line[0] == '#') continue;
    std::istringstream tokens(line);
    std::vector<std::string> names;
    std::string name;
    while (tokens >> name) names.push_back(name);
    if (names.empty()) continue;
    raw_sequences.push_back(std::move(names));
  }

  if (hierarchy != nullptr) {
    size_t line_number = 0;
    while (std::getline(*hierarchy, line)) {
      ++line_number;
      if (!line.empty() && line[0] == '#') continue;
      std::istringstream tokens(line);
      std::string child;
      std::string parent;
      if (!(tokens >> child)) continue;  // blank line
      if (!(tokens >> parent)) {
        throw DatasetIoError("hierarchy line " + std::to_string(line_number) +
                             ": expected 'child parent'");
      }
      builder.AddParent(builder.GetOrAddItem(child),
                        builder.GetOrAddItem(parent));
    }
  }

  SequenceDatabase db;
  std::vector<Sequence> encoded;
  encoded.reserve(raw_sequences.size());
  for (const auto& names : raw_sequences) {
    Sequence seq;
    seq.reserve(names.size());
    for (const std::string& name : names) {
      seq.push_back(builder.GetOrAddItem(name));
    }
    encoded.push_back(std::move(seq));
  }
  db.dict = builder.Build();
  db.sequences = std::move(encoded);
  db.Recode();
  return db;
}

SequenceDatabase ReadTextDatabaseFromFiles(const std::string& sequence_path,
                                           const std::string& hierarchy_path) {
  std::ifstream sequences(sequence_path);
  if (!sequences) {
    throw DatasetIoError("cannot open sequence file: " + sequence_path);
  }
  if (hierarchy_path.empty()) {
    return ReadTextDatabase(sequences, nullptr);
  }
  std::ifstream hierarchy(hierarchy_path);
  if (!hierarchy) {
    throw DatasetIoError("cannot open hierarchy file: " + hierarchy_path);
  }
  return ReadTextDatabase(sequences, &hierarchy);
}

}  // namespace dseq
