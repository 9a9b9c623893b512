// Dataset input/output in the text format: one sequence per line,
// whitespace-separated item names, plus an optional hierarchy file with
// "child parent" lines. Human-editable; the format used by the CLI tool.
#ifndef DSEQ_IO_DATASET_IO_H_
#define DSEQ_IO_DATASET_IO_H_

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/dict/sequence.h"

namespace dseq {

/// Thrown on malformed dataset files.
class DatasetIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads sequences from text (one sequence per line, items separated by
/// whitespace; '#' starts a comment line) and an optional hierarchy stream
/// ("child parent" per line). Unknown items are added to the dictionary.
/// The database is recoded before returning.
SequenceDatabase ReadTextDatabase(std::istream& sequences,
                                  std::istream* hierarchy = nullptr);
SequenceDatabase ReadTextDatabaseFromFiles(const std::string& sequence_path,
                                           const std::string& hierarchy_path);

}  // namespace dseq

#endif  // DSEQ_IO_DATASET_IO_H_
