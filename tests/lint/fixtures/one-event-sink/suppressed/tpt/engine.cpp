// Fixture: the same direct append with a justified suppression.
namespace fixture {
struct Journal {
  void record(int station, int kind);
};
struct Engine {
  void on_claim(int station);
  Journal* journal_ = nullptr;
};
void Engine::on_claim(int station) {
  // wrt-lint-allow(one-event-sink): fixture — append kept for a migration
  journal_->record(station, 22);
}
}  // namespace fixture
