// An interactive integrity-control shell.
//
// Drives the whole subsystem from a prompt: define relations, constraints
// and rules, inspect the catalog and the triggering graph, preview the
// modified form of a transaction (ModT), and execute transactions with
// enforcement.
//
//   $ ./build/examples/repl
//   txmod> relation beer(name string, type string, brewery string,
//          alcohol double)
//   txmod> constraint domain forall x (x in beer implies x.alcohol >= 0)
//   txmod> run insert(beer, {("pils", "lager", "heineken", 5.0)});
//   committed (logical time 1)
//   txmod> help
//
// Also scriptable:  ./build/examples/repl < script.txt
//
// Network modes (src/net wire protocol):
//   repl --serve PORT [--setup FILE]   serve the database over TCP; FILE
//                                      holds REPL commands (relations,
//                                      constraints) run before listening
//   repl --connect HOST PORT           interactive client against a
//                                      served instance (begin/execute/
//                                      commit/abort/run/show/policy/stats)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/algebra/parser.h"
#include "src/common/lexer.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/relational/persist.h"
#include "src/relational/relation.h"
#include "src/txn/txn_manager.h"

namespace {

using txmod::AttrType;
using txmod::Attribute;
using txmod::Database;
using txmod::RelationSchema;
using txmod::Result;
using txmod::Status;
using txmod::StrCat;

constexpr char kHelp[] = R"(commands:
  relation NAME(attr type, ...)   create a relation (types: int, double,
                                  string)
  constraint NAME FORMULA         declarative CL constraint (aborting rule,
                                  generated triggers)
  rule NAME RULE_TEXT             full RL rule: [WHEN ...] IF NOT ... THEN ...
  drop NAME                       drop a rule
  rules                           print the rule catalog
  graph                           print the triggering graph (dot)
  modify TXN                      show the modified transaction (no execute)
  run TXN                         modify + execute a transaction
  show NAME                       print a relation's contents
  schema                          list relations
  save PATH                       checkpoint the database to a file
  load PATH                       restore a checkpoint (replaces data;
                                  rules must be re-defined)
  \stats                          transaction-manager counters (commits,
                                  conflicts, retries, degraded state, COW)
  help                            this text
  quit                            exit
)";

/// Parses "name(attr type, attr type, ...)".
Result<RelationSchema> ParseRelationDecl(const std::string& text) {
  TXMOD_ASSIGN_OR_RETURN(auto tokens, txmod::Tokenize(text));
  std::size_t i = 0;
  if (tokens[i].kind != txmod::TokenKind::kIdent) {
    return Status::InvalidArgument("expected relation name");
  }
  const std::string name = tokens[i++].text;
  if (!tokens[i].IsOp("(")) {
    return Status::InvalidArgument("expected '(' after relation name");
  }
  ++i;
  std::vector<Attribute> attrs;
  while (true) {
    if (tokens[i].kind != txmod::TokenKind::kIdent) {
      return Status::InvalidArgument("expected attribute name");
    }
    const std::string attr = tokens[i++].text;
    if (tokens[i].kind != txmod::TokenKind::kIdent) {
      return Status::InvalidArgument("expected attribute type");
    }
    const std::string type = txmod::AsciiToLower(tokens[i++].text);
    AttrType at;
    if (type == "int") {
      at = AttrType::kInt;
    } else if (type == "double") {
      at = AttrType::kDouble;
    } else if (type == "string") {
      at = AttrType::kString;
    } else {
      return Status::InvalidArgument(StrCat("unknown type ", type));
    }
    attrs.push_back(Attribute{attr, at});
    if (tokens[i].IsOp(",")) {
      ++i;
      continue;
    }
    break;
  }
  if (!tokens[i].IsOp(")")) {
    return Status::InvalidArgument("expected ')' closing the attribute list");
  }
  ++i;
  if (tokens[i].kind != txmod::TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected input after ')'");
  }
  return RelationSchema(name, std::move(attrs));
}

class Repl {
 public:
  Repl() : ics_(&db_) { RebuildManager(); }

  void Run() {
    std::string line;
    std::cout << "txmod — transaction modification integrity subsystem\n"
              << "type 'help' for commands\n";
    while (true) {
      std::cout << "txmod> " << std::flush;
      if (!std::getline(std::cin, line)) break;
      if (!Dispatch(line)) break;
    }
    std::cout << "bye\n";
  }

  /// Runs a file of REPL commands (no prompt); stops at the first I/O
  /// failure. Used by --serve to define schema + constraints up front.
  Status RunScript(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      return Status::InvalidArgument(StrCat("cannot open script: ", path));
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line.rfind("--", 0) == 0) continue;
      std::cout << "txmod> " << line << "\n";
      if (!Dispatch(line)) break;
    }
    return Status::OK();
  }

  txmod::txn::TxnManager* manager() { return manager_.get(); }

 private:
  static std::pair<std::string, std::string> SplitCommand(
      const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::string rest;
    std::getline(in, rest);
    const std::size_t start = rest.find_first_not_of(" \t");
    rest = start == std::string::npos ? "" : rest.substr(start);
    return {txmod::AsciiToLower(command), rest};
  }

  void Report(const Status& st) {
    if (st.ok()) {
      std::cout << "ok\n";
    } else {
      std::cout << "error: " << st.ToString() << "\n";
    }
  }

  bool Dispatch(const std::string& line) {
    const auto [command, rest] = SplitCommand(line);
    if (command.empty()) return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      std::cout << kHelp;
    } else if (command == "relation") {
      auto schema = ParseRelationDecl(rest);
      if (!schema.ok()) {
        Report(schema.status());
        return true;
      }
      Report(db_.CreateRelation(*schema));
    } else if (command == "constraint") {
      const auto [name, formula] = SplitCommand(rest);
      Report(manager_->DefineConstraint(name, formula));
    } else if (command == "rule") {
      const auto [name, rule] = SplitCommand(rest);
      Report(manager_->DefineRule(name, rule));
    } else if (command == "drop") {
      Report(manager_->DropRule(rest));
    } else if (command == "rules") {
      for (const auto& rule : ics_.rules()) {
        std::cout << "-- " << rule.name << "\n" << rule.ToString() << "\n";
      }
      for (const std::string& warning : ics_.ValidateRuleTriggers()) {
        std::cout << "warning: " << warning << "\n";
      }
    } else if (command == "graph") {
      std::cout << ics_.graph().ToDot();
    } else if (command == "schema") {
      for (const auto& rs : db_.schema().relations()) {
        std::cout << rs.ToString() << "\n";
      }
    } else if (command == "save") {
      Report(txmod::SaveDatabaseToFile(db_, rest));
    } else if (command == "load") {
      auto loaded = txmod::LoadDatabaseFromFile(rest);
      if (!loaded.ok()) {
        Report(loaded.status());
        return true;
      }
      // The old manager goes first: it points at the database and the
      // subsystem being replaced.
      manager_.reset();
      db_ = *std::move(loaded);
      ics_ = txmod::core::IntegritySubsystem(&db_);
      RebuildManager();
      std::cout << "ok (rule catalog cleared; re-define rules)\n";
    } else if (command == "show") {
      auto rel = db_.Find(rest);
      if (!rel.ok()) {
        Report(rel.status());
        return true;
      }
      std::cout << (*rel)->ToString(64) << "\n";
    } else if (command == "modify") {
      txmod::algebra::AlgebraParser parser(&db_.schema());
      auto txn = parser.ParseTransaction(rest);
      if (!txn.ok()) {
        Report(txn.status());
        return true;
      }
      auto modified = ics_.Modify(*txn);
      if (!modified.ok()) {
        Report(modified.status());
        return true;
      }
      std::cout << modified->ToString();
    } else if (command == "run") {
      auto result = manager_->RunText(rest);
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      if (result->committed) {
        std::cout << "committed (logical time " << db_.logical_time()
                  << ")\n";
      } else {
        std::cout << "aborted: " << result->abort_reason << "\n";
      }
    } else if (command == "\\stats" || command == "stats") {
      PrintStats();
    } else {
      std::cout << "unknown command '" << command
                << "' — type 'help' for the list\n";
    }
    return true;
  }

  /// (Re)wraps the current subsystem in a volatile transaction manager —
  /// no WAL; the REPL persists via explicit `save`.
  void RebuildManager() {
    auto created = txmod::txn::TxnManager::Create(&ics_, {});
    if (!created.ok()) {
      std::cout << "fatal: " << created.status().ToString() << "\n";
      std::exit(1);
    }
    manager_ = std::move(*created);
  }

  void PrintStats() {
    const txmod::txn::TxnManagerStats s = manager_->stats();
    std::cout << "commits              " << s.commits << "\n"
              << "  read-only          " << s.readonly_commits << "\n"
              << "conflicts            " << s.conflicts << "\n"
              << "integrity aborts     " << s.integrity_aborts << "\n"
              << "retries              " << s.retries << "\n"
              << "backoff sleeps       " << s.backoff_sleeps << "\n"
              << "deadlines exceeded   " << s.deadlines_exceeded << "\n"
              << "wal appends          " << s.wal_appends << "\n"
              << "wal fsyncs           " << s.wal_fsyncs << "\n"
              << "checkpoints          " << s.checkpoints << "\n"
              << "wal failures         " << s.wal_failures << "\n"
              << "wal reopens          " << s.wal_reopens << "\n"
              << "writer rejections    " << s.unavailable_rejections << "\n"
              << "validation records   " << s.validation_records << "\n"
              << "validation tuples    " << s.validation_tuples << "\n"
              << "degraded             " << (s.degraded ? "yes" : "no");
    if (s.degraded) std::cout << " (" << s.degraded_cause << ")";
    // Overlay counters are process-wide, not the manager's.
    using txmod::CowStats;
    std::cout << "\n"
              << "cow overlays         " << CowStats::overlays_created.load()
              << "\n"
              << "cow overlay merges   " << CowStats::overlay_merges.load()
              << "\n"
              << "cow overlay collapses "
              << CowStats::overlay_collapses.load() << "\n";
  }

  Database db_;
  txmod::core::IntegritySubsystem ics_;
  std::unique_ptr<txmod::txn::TxnManager> manager_;
};

/// --serve: expose the REPL's database over the wire protocol. Blocks
/// until stdin closes (or `quit` is typed), then shuts down cleanly.
int Serve(uint16_t port, const std::string& setup_path) {
  Repl repl;
  if (!setup_path.empty()) {
    const Status st = repl.RunScript(setup_path);
    if (!st.ok()) {
      std::cerr << "setup failed: " << st.ToString() << "\n";
      return 1;
    }
  }
  txmod::net::ServerOptions options;
  options.port = port;
  txmod::net::Server server(repl.manager(), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "serve failed: " << started.ToString() << "\n";
    return 1;
  }
  std::cout << "serving on 127.0.0.1:" << server.port()
            << " — press enter or close stdin to stop\n"
            << std::flush;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit" || line.empty()) break;
  }
  server.Stop();
  std::cout << "server stopped\n";
  return 0;
}

/// --connect: a thin interactive client. Commands map 1:1 onto protocol
/// verbs; multi-word bodies pass through verbatim.
int ConnectRepl(const std::string& host, uint16_t port) {
  auto connected = txmod::net::Client::Connect(host, port);
  if (!connected.ok()) {
    std::cerr << "connect failed: " << connected.status().ToString() << "\n";
    return 1;
  }
  txmod::net::Client client = std::move(*connected);
  std::cout << "connected to " << host << ":" << port
            << " — begin | execute TXN | commit | abort | run TXN | "
               "show REL | policy k=v ... | stats | ping | quit\n";
  const auto print_outcome = [](const txmod::net::Outcome& outcome) {
    if (outcome.committed) {
      std::cout << "committed (version " << outcome.commit_version
                << ", attempts " << outcome.attempts << ")\n";
    } else if (outcome.conflict) {
      std::cout << "conflict after " << outcome.attempts << " attempts\n";
    } else {
      std::cout << "aborted: " << outcome.reason << "\n";
    }
  };
  const auto report = [](const Status& st) {
    if (st.ok()) {
      std::cout << "ok\n";
    } else {
      std::cout << "error: " << st.ToString() << "\n";
    }
  };
  std::string line;
  while (true) {
    std::cout << "txmod@" << host << "> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::string rest;
    std::getline(in, rest);
    const std::size_t start = rest.find_first_not_of(" \t");
    rest = start == std::string::npos ? "" : rest.substr(start);
    command = txmod::AsciiToLower(command);
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "ping") {
      report(client.Ping());
    } else if (command == "begin") {
      auto version = client.Begin();
      if (version.ok()) {
        std::cout << "session open at version " << *version << "\n";
      } else {
        report(version.status());
      }
    } else if (command == "execute") {
      auto outcome = client.Execute(rest);
      outcome.ok() ? print_outcome(*outcome) : report(outcome.status());
    } else if (command == "commit") {
      auto outcome = client.Commit();
      outcome.ok() ? print_outcome(*outcome) : report(outcome.status());
    } else if (command == "abort") {
      report(client.Abort());
    } else if (command == "run") {
      auto outcome = client.Run(rest);
      outcome.ok() ? print_outcome(*outcome) : report(outcome.status());
    } else if (command == "show") {
      auto shown = client.Show(rest);
      if (shown.ok()) {
        std::cout << *shown;
      } else {
        report(shown.status());
      }
    } else if (command == "policy") {
      std::map<std::string, std::string> fields;
      std::istringstream args(rest);
      std::string pair;
      bool parsed = true;
      while (args >> pair) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cout << "error: expected key=value, got '" << pair << "'\n";
          parsed = false;
          break;
        }
        fields[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
      if (parsed) report(client.SetPolicy(fields));
    } else if (command == "stats") {
      auto stats = client.Stats();
      if (!stats.ok()) {
        report(stats.status());
      } else {
        for (const auto& [key, value] : *stats) {
          std::cout << key << " = " << value << "\n";
        }
      }
    } else {
      std::cout << "unknown command '" << command << "'\n";
    }
    if (!client.connected()) {
      std::cout << "connection lost\n";
      return 1;
    }
  }
  std::cout << "bye\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--serve") {
    const int port = std::atoi(argv[2]);
    std::string setup;
    if (argc >= 5 && std::string(argv[3]) == "--setup") setup = argv[4];
    return Serve(static_cast<uint16_t>(port), setup);
  }
  if (argc >= 4 && std::string(argv[1]) == "--connect") {
    return ConnectRepl(argv[2],
                       static_cast<uint16_t>(std::atoi(argv[3])));
  }
  if (argc > 1) {
    std::cerr << "usage: " << argv[0]
              << " [--serve PORT [--setup FILE] | --connect HOST PORT]\n";
    return 2;
  }
  Repl repl;
  repl.Run();
  return 0;
}
