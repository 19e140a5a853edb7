#include "server/search_server.h"

namespace distperm {
namespace server {

std::string StatzJson(const ServerStatz& statz) {
  std::string json = "{";
  const auto field = [&json](const char* name, uint64_t value, bool last) {
    json += "\"";
    json += name;
    json += "\": ";
    json += std::to_string(value);
    if (!last) json += ", ";
  };
  field("generation", statz.generation, false);
  field("delta_depth", statz.delta_depth, false);
  field("mutation_clock", statz.mutation_clock, false);
  field("remove_clock", statz.remove_clock, false);
  field("connections", statz.connections, false);
  field("requests", statz.requests, false);
  field("batches", statz.batches, false);
  field("overload_rejected", statz.overload_rejected, false);
  field("decode_errors", statz.decode_errors, false);
  field("paused_connections", statz.paused_connections, false);
  field("write_backlog_max_bytes", statz.write_backlog_max_bytes, false);
  field("cache_hits", statz.cache_hits, false);
  field("cache_misses", statz.cache_misses, false);
  field("cache_bound_seeds", statz.cache_bound_seeds, false);
  field("cache_invalidations", statz.cache_invalidations, false);
  field("cache_evictions", statz.cache_evictions, true);
  json += "}\n";
  return json;
}

bool ParseHttpGetPath(const std::string& buffer, std::string* path) {
  const size_t line_end = buffer.find('\n');
  if (line_end == std::string::npos) return false;
  std::string line = buffer.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  path->clear();
  const size_t first_space = line.find(' ');
  if (first_space == std::string::npos || line.substr(0, first_space) != "GET") {
    return true;  // complete but malformed line -> empty path -> 404
  }
  const size_t second_space = line.find(' ', first_space + 1);
  *path = second_space == std::string::npos
              ? line.substr(first_space + 1)
              : line.substr(first_space + 1, second_space - first_space - 1);
  return true;
}

std::string HttpTextResponse(int status_code, const std::string& body) {
  const char* reason = status_code == 200 ? "OK" : "Not Found";
  std::string response = "HTTP/1.0 " + std::to_string(status_code) + " " +
                         reason + "\r\n";
  response += "Content-Type: text/plain; charset=utf-8\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

}  // namespace server
}  // namespace distperm
