#include "common/options.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace cagmres {

Options::Options(std::string program_description)
    : description_(std::move(program_description)) {}

void Options::add(const std::string& key, const std::string& default_value,
                  const std::string& help) {
  CAGMRES_REQUIRE(!opts_.count(key), "duplicate option --" + key);
  opts_[key] = Opt{default_value, default_value, help};
  order_.push_back(key);
}

bool Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", help().c_str());
      return false;
    }
    CAGMRES_REQUIRE(arg.rfind("--", 0) == 0,
                    "expected --key[=value], got '" + arg + "'\n" + help());
    arg = arg.substr(2);
    std::string key, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      auto it = opts_.find(key);
      CAGMRES_REQUIRE(it != opts_.end(), "unknown option --" + key + "\n" + help());
      // Boolean flag if the next token is absent or itself an option.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "1";
      }
    }
    auto it = opts_.find(key);
    CAGMRES_REQUIRE(it != opts_.end(), "unknown option --" + key + "\n" + help());
    it->second.value = value;
  }
  return true;
}

std::string Options::get(const std::string& key) const {
  auto it = opts_.find(key);
  CAGMRES_REQUIRE(it != opts_.end(), "option --" + key + " not registered");
  return it->second.value;
}

int Options::get_int(const std::string& key) const {
  return std::stoi(get(key));
}

double Options::get_double(const std::string& key) const {
  return std::stod(get(key));
}

bool Options::get_bool(const std::string& key) const {
  const std::string v = get(key);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::vector<int> Options::get_int_list(const std::string& key) const {
  const std::string raw = get(key);
  std::vector<int> out;
  if (raw.empty()) return out;
  std::stringstream ss(raw);
  std::string tok;
  bool last_was_sep = true;  // getline drops a trailing empty token
  while (std::getline(ss, tok, ',')) {
    last_was_sep = !ss.eof();
    CAGMRES_REQUIRE(!tok.empty(), "--" + key + "='" + raw +
                                      "': empty entry in integer list");
    std::size_t pos = 0;
    int value = 0;
    try {
      value = std::stoi(tok, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    CAGMRES_REQUIRE(pos == tok.size(), "--" + key + "='" + raw +
                                           "': bad integer entry '" + tok +
                                           "'");
    out.push_back(value);
  }
  CAGMRES_REQUIRE(!last_was_sep, "--" + key + "='" + raw +
                                     "': empty entry in integer list");
  return out;
}

std::string Options::help() const {
  std::ostringstream os;
  os << description_ << "\n\noptions:\n";
  for (const auto& key : order_) {
    const Opt& o = opts_.at(key);
    os << "  --" << key << " (default: " << o.default_value << ")\n      "
       << o.help << "\n";
  }
  return os.str();
}

int run_cli(const char* prog, int (*body)(int, char**), int argc,
            char** argv) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    const std::string what = e.what();
    std::fprintf(stderr, "%s: %s\n", prog,
                 what.substr(0, what.find('\n')).c_str());
    return 3;
  }
}

}  // namespace cagmres
