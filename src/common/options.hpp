// Minimal command-line option parser used by the bench and example binaries.
//
// Accepts "--key=value", "--key value" and boolean "--flag" forms. Unknown
// keys raise an error listing everything that was registered, so every
// binary gets a usable --help for free.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace cagmres {

/// Declarative command-line parser: register options, then parse().
class Options {
 public:
  explicit Options(std::string program_description);

  /// Registers an option with a default value and a help string.
  void add(const std::string& key, const std::string& default_value,
           const std::string& help);

  /// Parses argv; throws cagmres::Error on unknown keys. Returns false when
  /// --help was requested (help text already printed to stdout).
  bool parse(int argc, char** argv);

  std::string get(const std::string& key) const;
  int get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// Comma-separated list of integers, e.g. "--s=1,2,4,8".
  std::vector<int> get_int_list(const std::string& key) const;

  /// Renders the help text.
  std::string help() const;

 private:
  struct Opt {
    std::string default_value;
    std::string value;
    std::string help;
  };
  std::string description_;
  std::map<std::string, Opt> opts_;
  std::vector<std::string> order_;
};

/// Runs a command-line program's body and turns a cagmres::Error escaping
/// it into one stderr line, "<prog>: <first line of what()>", and exit
/// code 3. Only the first line is printed because an unknown-option error
/// carries the whole help text.
int run_cli(const char* prog, int (*body)(int, char**), int argc,
            char** argv);

}  // namespace cagmres
