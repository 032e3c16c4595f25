// Fixture: second event paths in an engine file (2 findings).  The
// journal_record helper's own append and its call site must NOT fire —
// only the log line and the direct append do.
namespace fixture {
struct Journal {
  void record(int station, int kind);
};
struct Engine {
  void journal_record(int station, int kind) {
    if (journal_ != nullptr) journal_->record(station, kind);
  }
  void on_cut_out(int station);
  Journal* journal_ = nullptr;
};
void Engine::on_cut_out(int station) {
  journal_record(station, 6);
  util::log(0, "cut out station");
  journal_->record(station, 6);
}
}  // namespace fixture
